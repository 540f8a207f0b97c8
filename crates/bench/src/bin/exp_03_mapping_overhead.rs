dsa_bench::experiment_main!();
