//! Property-based tests pinning the streaming trace layer's
//! exact-replay contract: a stream is a drop-in replacement for the
//! materializing generator — same configuration, same seed, same
//! references — and any clone resumes the identical tail.

use dsa::trace::refstring::RefStringCfg;
use dsa::trace::rng::Rng64;
use dsa::trace::RefStream;
use proptest::prelude::*;

/// Every reference-string regime, with parameters drawn from the
/// ranges the experiments actually use.
fn arb_cfg() -> impl Strategy<Value = RefStringCfg> {
    prop_oneof![
        (1u64..200).prop_map(|pages| RefStringCfg::Uniform { pages }),
        (1u64..100, 0.2f64..1.4).prop_map(|(pages, theta)| RefStringCfg::LruStack { pages, theta }),
        (2u64..100, 1u64..40, 1u64..50).prop_map(|(pages, set, phase_len)| {
            RefStringCfg::WorkingSetPhases {
                pages,
                set: set.min(pages),
                phase_len,
            }
        }),
        (1u64..200).prop_map(|pages| RefStringCfg::SequentialSweep { pages }),
        (1u64..20, 0u64..40, 1u64..10).prop_map(|(inner, outer, period)| {
            RefStringCfg::LoopNest {
                inner,
                outer,
                period,
            }
        }),
        (1u64..50, 1u64..200, 0.0f64..1.0)
            .prop_map(|(hot, cold, p_hot)| { RefStringCfg::HotCold { hot, cold, p_hot } }),
    ]
}

/// The reference models exist once (in the stream; `generate` drains
/// it), so prefix equality cannot catch a model that drifts. These are
/// the first 32 references of every regime at seed 1967 and write
/// fraction 0.3 — pages, write flags as a bit mask (bit *i* = reference
/// *i*), and the caller's generator's next raw draw after `generate`
/// hands it back — as the two-copy implementation produced them.
#[test]
fn every_regime_is_pinned_at_seed_1967() {
    #[rustfmt::skip]
    let pinned: [(RefStringCfg, [u64; 32], u32, u64); 6] = [
        (RefStringCfg::Uniform { pages: 50 },
         [16, 47, 5, 19, 21, 28, 29, 11, 38, 45, 38, 30, 3, 1, 20, 27,
          30, 21, 45, 21, 9, 15, 11, 48, 8, 3, 5, 33, 26, 0, 34, 28],
         0x041a_0220, 0x27a3_b7e0_e2e9_9794),
        (RefStringCfg::LruStack { pages: 40, theta: 0.9 },
         [19, 19, 8, 5, 2, 38, 5, 5, 10, 37, 28, 10, 5, 5, 5, 25,
          27, 27, 16, 38, 24, 13, 7, 5, 16, 15, 15, 16, 28, 7, 16, 13],
         0x2820_1275, 0x2a55_5098_a119_1d34),
        (RefStringCfg::WorkingSetPhases { pages: 30, set: 5, phase_len: 12 },
         [21, 5, 1, 16, 6, 16, 16, 21, 5, 1, 5, 21, 12, 29, 19, 12,
          19, 6, 17, 19, 17, 6, 19, 29, 27, 14, 0, 8, 27, 8, 0, 0],
         0x0d43_0ea0, 0x07e0_78a7_9b68_84bc),
        (RefStringCfg::SequentialSweep { pages: 7 },
         [0, 1, 2, 3, 4, 5, 6, 0, 1, 2, 3, 4, 5, 6, 0, 1,
          2, 3, 4, 5, 6, 0, 1, 2, 3, 4, 5, 6, 0, 1, 2, 3],
         0x0508_4810, 0x9a07_5299_c70e_b89c),
        (RefStringCfg::LoopNest { inner: 3, outer: 6, period: 3 },
         [0, 1, 2, 3, 6, 0, 1, 2, 4, 7, 0, 1, 2, 5, 8, 0,
          1, 2, 3, 6, 0, 1, 2, 4, 7, 0, 1, 2, 5, 8, 0, 1],
         0x0508_4810, 0x9a07_5299_c70e_b89c),
        (RefStringCfg::HotCold { hot: 4, cold: 28, p_hot: 0.8 },
         [3, 7, 3, 2, 2, 25, 9, 21, 2, 1, 2, 1, 29, 0, 1, 3,
          2, 0, 2, 0, 1, 0, 0, 3, 0, 30, 3, 9, 2, 1, 9, 0],
         0x0023_6918, 0xd5da_4ef0_667c_221b),
    ];
    for (cfg, pages, writes, next_draw) in pinned {
        let mut rng = Rng64::new(1967);
        let got = cfg.generate(32, 0.3, &mut rng);
        let got_pages: Vec<u64> = got.iter().map(|a| a.name.value()).collect();
        let got_writes = got
            .iter()
            .enumerate()
            .fold(0u32, |m, (i, a)| m | (u32::from(a.kind.is_write()) << i));
        assert_eq!(got_pages, pages, "{cfg:?}: pages");
        assert_eq!(got_writes, writes, "{cfg:?}: write flags");
        assert_eq!(rng.next_u64(), next_draw, "{cfg:?}: generator handed back");
    }
}

proptest! {
    /// `generate` is the stream's prefix, for every regime: same pages,
    /// same access kinds, same order, and the caller's generator comes
    /// back advanced as far as the stream's own.
    #[test]
    fn stream_collects_to_the_generator(
        cfg in arb_cfg(),
        seed in any::<u64>(),
        len in 0usize..600,
        wf in 0.0f64..1.0,
    ) {
        let mut rng = Rng64::new(seed);
        let materialized = cfg.generate(len, wf, &mut rng);
        let mut stream = cfg.stream(wf, seed);
        let streamed: Vec<_> = stream.by_ref().take(len).collect();
        prop_assert_eq!(streamed, materialized);
        // A memoryless regime continues from the returned generator
        // exactly where the stream continues.
        if matches!(cfg, RefStringCfg::Uniform { .. } | RefStringCfg::HotCold { .. }) {
            let more = cfg.generate(16, wf, &mut rng);
            prop_assert_eq!(stream.take(16).collect::<Vec<_>>(), more);
        }
    }

    /// Same seed ⇒ byte-identical sequence across any resume point: a
    /// clone taken mid-stream continues with exactly the suffix the
    /// uninterrupted stream produces.
    #[test]
    fn stream_resumes_identically(
        cfg in arb_cfg(),
        seed in any::<u64>(),
        len in 1usize..400,
        split_frac in 0.0f64..1.0,
        wf in 0.0f64..1.0,
    ) {
        let split = ((len as f64 * split_frac) as usize).min(len - 1);
        let full: Vec<_> = cfg.stream(wf, seed).take(len).collect();

        // Checkpoint by cloning: O(1), resumes the exact tail.
        let mut s = cfg.stream(wf, seed);
        for _ in 0..split {
            s.next();
        }
        let checkpoint = s.clone();
        prop_assert_eq!(checkpoint.position(), split as u64);
        let tail: Vec<_> = checkpoint.take(len - split).collect();
        prop_assert_eq!(&tail, &full[split..]);
    }
}
