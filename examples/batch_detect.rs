//! Detection as a service, through the library API: submit a batch to a
//! `DetectionServer`, watch unchanged functions come back **warm** (zero
//! solver steps) from the persistent fingerprint cache, and see that
//! alpha-renaming stays warm while a one-instruction edit re-solves.
//!
//! The CLI front end for the same pipeline is `greduce batch <files..>
//! [--jobs N] [--cache <dir>] [--budget N]`.
//!
//! Run with: `cargo run --release --example batch_detect`

use general_reductions::prelude::*;
use general_reductions::server::{status_line, DetectionServer, ServeConfig};

fn modules(srcs: &[&str]) -> Vec<general_reductions::ir::Module> {
    srcs.iter().map(|s| compile(s).expect("compiles")).collect()
}

fn main() {
    let dir = std::env::temp_dir().join(format!("gr-batch-example-{}", std::process::id()));
    let config = ServeConfig {
        jobs: 4,
        cache_path: Some(dir.join("gr-cache.json")),
        ..ServeConfig::default()
    };

    let batch = modules(&[
        "float sum(float* a, int n) {
             float s = 0.0;
             for (int i = 0; i < n; i++) s += a[i];
             return s;
         }",
        "int count(int* a, int n, int key) {
             int c = 0;
             for (int i = 0; i < n; i++) if (a[i] == key) c = c + 1;
             return c;
         }",
    ]);

    // Cold: an empty cache — every function is solved (here on the
    // calling thread: a batch wakes a helper only from 8 cold functions
    // on, and this one has two).
    let mut server = DetectionServer::new(config.clone());
    println!("cold batch:");
    for r in server.run_batch(&batch).results {
        println!("  {}", status_line(&r));
    }
    server.persist().expect("cache persists");

    // Warm: a *new* server (think: the next CI run) replays the
    // gr-cache/v2 journal and serves the unchanged functions for free.
    let mut server = DetectionServer::new(config);
    println!("warm batch (fresh server, same cache dir):");
    let warm = server.run_batch(&batch);
    for r in &warm.results {
        println!("  {}", status_line(r));
    }
    assert_eq!(warm.summary.solver_steps, 0, "unchanged functions are free");

    // Incremental re-detection: alpha-renaming every identifier keeps
    // the structural fingerprint (still warm, re-labelled); a
    // one-instruction edit changes it (cold again).
    let edited = modules(&[
        "float total(float* xs, int len) {
             float acc = 0.0;
             for (int j = 0; j < len; j++) acc += xs[j];
             return acc;
         }",
        "int count(int* a, int n, int key) {
             int c = 0;
             for (int i = 0; i < n; i++) if (a[i] == key) c = c + 2;
             return c;
         }",
    ]);
    println!("after an alpha-rename (sum -> total) and a real edit (count):");
    for r in server.run_batch(&edited).results {
        println!("  {}", status_line(&r));
    }

    let _ = std::fs::remove_dir_all(&dir);
}
