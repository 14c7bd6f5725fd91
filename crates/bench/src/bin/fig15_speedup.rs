//! Regenerates Figure 15: whole-program speedups for the
//! histogram-dominated benchmarks, comparing this repository's reduction
//! parallelism against a simulation of the original parallel versions.

use gr_benchsuite::speedup::fig15;

fn main() {
    let threads: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4));
    let scale: usize = std::env::args().nth(2).and_then(|s| s.parse().ok()).unwrap_or(1);
    println!("## Figure 15 — speedup vs sequential ({threads} threads, scale {scale})");
    println!(
        "{:<8} | {:>10} | {:>10} | {:>10} || paper(ours) paper(orig, 64 cores)",
        "program", "seq (ms)", "ours", "original"
    );
    println!("{}", "-".repeat(88));
    for row in fig15(threads, scale) {
        let original = row.original_speedup().map_or("= ours".to_string(), |s| format!("{s:.2}x"));
        println!(
            "{:<8} | {:>10.1} | {:>9.2}x | {:>10} || {:>10.2}x {:>10.2}x",
            row.name,
            row.sequential.as_secs_f64() * 1e3,
            row.reduction_speedup(),
            original,
            row.paper_reduction,
            row.paper_original,
        );
    }
    println!();
    println!("shape targets: histo & tpacf: ours >> original (locking);");
    println!("               EP & IS: original > ours (coarser parallelism);");
    println!("               kmeans: original = ours by construction (both reduction-based).");
}
