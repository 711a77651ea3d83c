//! Regenerates **Table III** — coverage statistics for the ablation tests
//! (48 h): DroidFuzz, DF-NoRel, DF-NoHCov, and the syzkaller baseline on
//! all seven devices, with Mann-Whitney U significance per §V-A
//! ("data groups that do not exhibit such significance will be labelled
//! explicitly").
//!
//! Scale: `DF_HOURS` (default 48), `DF_REPEATS` (default 5; paper: 10).

use droidfuzz::config::FuzzerConfig;
use droidfuzz::fleet::FleetResult;
use droidfuzz::report::ascii_table;
use droidfuzz::stats::mann_whitney_u;
use droidfuzz_bench::{env_f64, env_u64, run_matrix, MakeConfig};
use simdevice::catalog;

fn main() {
    let hours = env_f64("DF_HOURS", 48.0);
    let repeats = env_u64("DF_REPEATS", 5);
    let devices = catalog::all_devices();
    println!(
        "Table III: ablation coverage ({hours} h, mean of {repeats} runs; * = not significant vs DroidFuzz at p<0.05)\n"
    );
    let variants: Vec<(&str, MakeConfig)> = vec![
        ("DroidFuzz", FuzzerConfig::droidfuzz),
        ("DF-NoRel", FuzzerConfig::droidfuzz_norel),
        ("DF-NoHCov", FuzzerConfig::droidfuzz_nohcov),
        ("Syzkaller", FuzzerConfig::syzkaller),
    ];
    let results = run_matrix(&devices, &variants, hours, repeats);
    let finals = |r: &FleetResult| r.shards.iter().map(|s| s.final_coverage).collect::<Vec<_>>();
    let mut rows = Vec::new();
    for chunk in results.chunks(variants.len()) {
        let df = &chunk[0];
        let mut row = vec![df.device_id.clone(), format!("{:.0}", df.mean_final_coverage())];
        for other in &chunk[1..] {
            let (_, p) = mann_whitney_u(&finals(df), &finals(other));
            let marker = if p >= 0.05 { "*" } else { "" };
            row.push(format!("{:.0}{marker}", other.mean_final_coverage()));
        }
        rows.push(row);
    }
    println!(
        "{}",
        ascii_table(
            &["Device", "DroidFuzz", "DF-NoRel", "DF-NoHCov", "Syzkaller"],
            &rows
        )
    );
    // Aggregate ordering check (the paper's qualitative claims).
    let mean_of = |idx: usize| -> f64 {
        results
            .chunks(variants.len())
            .map(|c| c[idx].mean_final_coverage())
            .sum::<f64>()
            / devices.len() as f64
    };
    println!("fleet means: DroidFuzz {:.0}, DF-NoRel {:.0}, DF-NoHCov {:.0}, Syzkaller {:.0}",
        mean_of(0), mean_of(1), mean_of(2), mean_of(3));
}
