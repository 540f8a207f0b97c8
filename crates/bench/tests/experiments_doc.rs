//! EXPERIMENTS.md against the tables it quotes.
//!
//! The document has one section per experiment, headed
//! `## E… (`exp_…`)`. Each section's experiment must be registered,
//! and each number in its **Measured** paragraph (the paragraph that
//! starts `**Measured`, up to the next blank line) must occur in that
//! experiment's rendered tables — its golden files under
//! `tests/golden/`, which the golden gauntlet holds to the rendering —
//! at the precision the paragraph prints it. A number may drop a
//! table's `%` or `x`, read a µs cell in ms or an ms cell in s, and
//! carry a `k` (thousand), `M` (million) or `K` (1024) suffix. A
//! sentence whose numbers are derived from the tables rather than
//! quoted from them (a ratio, a sum) says so with `<!-- derived -->`.
//!
//! What is not a number here: digits inside a code span, or touching a
//! letter or `_` (E3, M44, B8500, `exp_18`), and scientific notation
//! is one number (`1e-2`). `360/67` and the like are matched whole as
//! well as part by part.

use std::path::Path;

use dsa_bench::EXPERIMENTS;

/// The marker a sentence of derived numbers carries.
const DERIVED: &str = "<!-- derived -->";

/// One number of a text: its value, the decimals it is printed with,
/// the factor its suffix stands for, and its unit when it has one.
#[derive(Debug, Clone)]
struct Number {
    text: String,
    value: f64,
    decimals: i32,
    scale: f64,
    unit: &'static str,
}

fn is_wordish(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

/// Every number of `text`, in order, code spans skipped.
fn numbers(text: &str) -> Vec<Number> {
    let chars: Vec<char> = text.chars().collect();
    let at = |j: usize| chars.get(j).copied();
    let run = |j: usize| {
        chars
            .iter()
            .skip(j)
            .take_while(|c| c.is_ascii_digit())
            .count()
    };
    let mut out = Vec::new();
    let (mut i, mut in_code) = (0, false);
    while i < chars.len() {
        let c = chars[i];
        if c == '`' {
            in_code = !in_code;
        }
        if in_code || !c.is_ascii_digit() {
            i += 1;
            continue;
        }
        // Digits after a letter, `_` or `.` are part of a name: E3, M44.
        if i > 0 && (is_wordish(chars[i - 1]) || chars[i - 1] == '.') {
            i += run(i);
            continue;
        }
        let start = i;
        let mut j = i + run(i);
        let mut plain: String = chars[start..j].iter().collect();
        // Digit groups of three: "17,407", "161 008".
        if j - start <= 3 {
            while matches!(at(j), Some(',' | ' ')) && run(j + 1) == 3 {
                plain.extend(&chars[j + 1..j + 4]);
                j += 4;
            }
        }
        let mut decimals = 0;
        if at(j) == Some('.') && run(j + 1) > 0 {
            let d = run(j + 1);
            plain.push('.');
            plain.extend(&chars[j + 1..j + 1 + d]);
            decimals = d as i32;
            j += 1 + d;
        }
        let mut value: f64 = plain.parse().expect("digits parse");
        // Scientific notation: 1e-2.
        let neg = at(j + 1) == Some('-');
        let exp_at = j + 1 + usize::from(neg);
        if at(j) == Some('e') && run(exp_at) > 0 {
            let d = run(exp_at);
            let exp: i32 = chars[exp_at..exp_at + d]
                .iter()
                .collect::<String>()
                .parse()
                .expect("exponent");
            let exp = if neg { -exp } else { exp };
            value *= 10f64.powi(exp);
            decimals = (decimals - exp).max(0);
            j = exp_at + d;
        }
        let lone = |k: usize| !at(k).is_some_and(is_wordish);
        let scale = match at(j) {
            Some('k') if lone(j + 1) => 1e3,
            Some('M') if lone(j + 1) => 1e6,
            Some('K') if lone(j + 1) => 1024.0,
            _ => 0.0,
        };
        let scale = if scale > 0.0 {
            j += 1;
            scale
        } else {
            if matches!(at(j), Some('x' | '×')) && lone(j + 1) {
                j += 1;
            }
            1.0
        };
        // A unit, attached ("7394us") or after one space ("6.8 s").
        let spaced = usize::from(at(j) == Some(' '));
        let unit = ["µs", "us", "ms", "ns", "s"]
            .into_iter()
            .find(|u| {
                let n = u.chars().count();
                let fits = u
                    .chars()
                    .enumerate()
                    .all(|(k, c)| at(j + spaced + k) == Some(c));
                fits && lone(j + spaced + n) && (spaced == 1 || n == 2)
            })
            .unwrap_or("");
        if unit.is_empty() && !lone(j) {
            // "44X", "1960s": part of a name or a word.
            i = j;
            while at(i).is_some_and(is_wordish) {
                i += 1;
            }
            continue;
        }
        out.push(Number {
            text: chars[start..j].iter().collect(),
            value,
            decimals,
            scale,
            unit,
        });
        i = j;
    }
    out
}

/// The `a/b` pairs of `text`, e.g. `360/67`.
fn fractions(text: &str) -> Vec<String> {
    text.split(|c: char| c.is_whitespace() || c == '(' || c == ')' || c == ',')
        .map(|w| w.trim_end_matches(['.', ';', ':']))
        .filter(|w| {
            let mut parts = w.split('/');
            let (Some(a), Some(b), None) = (parts.next(), parts.next(), parts.next()) else {
                return false;
            };
            let num = |s: &str| !s.is_empty() && s.chars().all(|c| c.is_ascii_digit());
            num(a) && num(b)
        })
        .map(str::to_owned)
        .collect()
}

/// Whether `n` is `v` at `n`'s printed precision.
fn reads_as(n: &Number, v: f64) -> bool {
    let p = 10f64.powi(n.decimals);
    ((v / n.scale) * p).round() == (n.value * p).round()
}

/// Whether `n` occurs among the table numbers `cells`.
fn quoted(n: &Number, cells: &[Number]) -> bool {
    cells.iter().any(|c| {
        let v = c.value * c.scale;
        reads_as(n, v)
            || (matches!(c.unit, "µs" | "us") && n.unit == "ms" || c.unit == "ms" && n.unit == "s")
                && reads_as(n, v / 1000.0)
    })
}

/// Splits a paragraph into sentences at `. `, keeping each marker
/// with the sentence it ends.
fn sentences(paragraph: &str) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for part in paragraph.split(". ") {
        match part.strip_prefix(DERIVED) {
            Some(rest) if !out.is_empty() => {
                out.last_mut().expect("a sentence").push_str(DERIVED);
                out.push(rest.to_owned());
            }
            _ => out.push(part.to_owned()),
        }
    }
    out
}

/// Each section: (its experiment, its **Measured** paragraph or "").
fn sections(doc: &str) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = Vec::new();
    let mut measuring = false;
    for line in doc.lines() {
        if let Some(head) = line.strip_prefix("## E") {
            let name = head
                .rsplit_once("(`")
                .and_then(|(_, tail)| tail.strip_suffix("`)"))
                .unwrap_or_else(|| panic!("section `## E{head}` names no (`exp_…`)"));
            out.push((name.to_owned(), String::new()));
            measuring = false;
        } else if line.starts_with("## ") {
            measuring = false;
        } else if let Some((_, paragraph)) = out.last_mut() {
            if line.starts_with("**Measured") && paragraph.is_empty() {
                measuring = true;
            }
            if line.trim().is_empty() {
                measuring = false;
            } else if measuring {
                paragraph.push_str(line);
                paragraph.push(' ');
            }
        }
    }
    out
}

/// The numbers of experiment `name`'s rendered tables: its golden
/// files, heading line dropped.
fn table_numbers(name: &str) -> (Vec<Number>, Vec<String>) {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden");
    let mut cells = Vec::new();
    let mut pairs = Vec::new();
    for entry in std::fs::read_dir(&dir).expect("tests/golden") {
        let file = entry.expect("an entry").file_name();
        let file = file.to_str().expect("UTF-8");
        if file.starts_with(name) && file.ends_with(".txt") {
            let text = std::fs::read_to_string(dir.join(file)).expect("a golden file");
            for line in text.lines().skip(1) {
                cells.extend(numbers(line));
                pairs.extend(fractions(line));
            }
        }
    }
    assert!(!cells.is_empty(), "{name} has no golden tables");
    (cells, pairs)
}

/// The numbers of `paragraph` that its experiment's tables do not
/// hold, outside sentences marked derived.
fn unquoted(paragraph: &str, cells: &[Number], pairs: &[String]) -> Vec<String> {
    let mut out = Vec::new();
    for sentence in sentences(paragraph) {
        if sentence.contains(DERIVED) {
            continue;
        }
        let whole = fractions(&sentence);
        for n in numbers(&sentence) {
            let in_pair = whole
                .iter()
                .any(|w| w.split('/').any(|p| p == n.text) && pairs.contains(w));
            if !in_pair && !quoted(&n, cells) {
                out.push(format!("{} in \"{}\"", n.text, sentence.trim()));
            }
        }
    }
    out
}

#[test]
fn every_measured_number_is_in_its_experiments_tables() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../EXPERIMENTS.md");
    let doc = std::fs::read_to_string(&path).expect("EXPERIMENTS.md");
    let mut missing = Vec::new();
    let all = sections(&doc);
    assert!(all.len() >= EXPERIMENTS.len(), "{} sections", all.len());
    for (name, paragraph) in &all {
        assert!(
            EXPERIMENTS.iter().any(|e| e.name == name),
            "EXPERIMENTS.md has a section for {name}, which is not registered"
        );
        let (cells, pairs) = table_numbers(name);
        for m in unquoted(paragraph, &cells, &pairs) {
            missing.push(format!("{name}: {m}"));
        }
    }
    assert!(
        missing.is_empty(),
        "EXPERIMENTS.md quotes numbers its tables do not hold (quote the table, or mark \
         the sentence {DERIVED}):\n{}",
        missing.join("\n")
    );
}

/// The check reads numbers the way the document prints them, and it
/// bites: a planted wrong figure is caught, its marked twin is not.
#[test]
fn the_check_reads_numbers_and_bites() {
    let got: Vec<String> =
        numbers("E3 at 40 252 ops, 17,407 and 90.6% in 7.4 ms; 1e-2, M44, `exp_18` 3.8x 72.6k")
            .into_iter()
            .map(|n| n.text)
            .collect();
    assert_eq!(
        got,
        ["40 252", "17,407", "90.6", "7.4", "1e-2", "3.8x", "72.6k"]
    );
    let cells = numbers("7394us  0.01  3.78x  72640  90.62%  40252  17407");
    let fine = "At 40 252 ops, 17,407 faults and 90.6% busy; 7.4 ms, 1e-2, 3.8x and 72.6k entries.";
    assert!(
        unquoted(fine, &cells, &[]).is_empty(),
        "{:?}",
        unquoted(fine, &cells, &[])
    );
    let planted = "Mean wait 7.5 ms.";
    assert_eq!(unquoted(planted, &cells, &[]).len(), 1);
    let marked = format!("Mean wait 7.5 ms {DERIVED}.");
    assert!(unquoted(&marked, &cells, &[]).is_empty());
    assert!(!unquoted("Models 360/67.", &cells, &[]).is_empty());
    assert!(unquoted("Models 360/67.", &cells, &["360/67".to_owned()]).is_empty());
}
