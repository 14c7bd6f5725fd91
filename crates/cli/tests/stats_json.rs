//! `greduce stats --json` writes a `greduce/stats/v4` document that the
//! shared integer-only reader (`gr_trace::json`) parses, with a module
//! total equal to the sum of the per-function totals and no `trie` block.

use gr_trace::json::{lookup, JsonVal};
use std::process::Command;

// `sum` carries two accumulators so its scalar solve branches and costs
// real steps; `amin` adds a second function to the module total.
const TWO_FUNCS: &str = "float sum(float* a, int n) {
         float s = 0.0;
         float t = 1.0;
         for (int i = 0; i < n; i++) { s += a[i]; t *= a[i]; }
         return s + t;
     }
     int amin(float* a, int n) {
         float best = 1.0e30;
         int bi = 0;
         for (int i = 0; i < n; i++) {
             float v = a[i];
             if (v < best) { best = v; bi = i; }
         }
         return bi;
     }";

fn obj(v: &JsonVal) -> &[(String, JsonVal)] {
    v.as_obj().expect("object")
}

fn int(o: &[(String, JsonVal)], key: &str) -> i64 {
    lookup(o, key)
        .and_then(JsonVal::as_int)
        .unwrap_or_else(|| panic!("integer `{key}`"))
}

#[test]
fn stats_json_is_read_by_the_shared_reader() {
    let dir = std::env::temp_dir().join(format!("gr-stats-json-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let src = dir.join("two.c");
    std::fs::write(&src, TWO_FUNCS).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_greduce"))
        .arg("stats")
        .arg(&src)
        .arg("--json")
        .output()
        .expect("run greduce stats");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();

    let doc = JsonVal::parse(&stdout).unwrap_or_else(|| panic!("unreadable document:\n{stdout}"));
    let doc = obj(&doc);
    assert_eq!(lookup(doc, "schema").and_then(JsonVal::as_str), Some("greduce/stats/v4"));
    let functions = lookup(doc, "functions").and_then(JsonVal::as_arr).expect("functions");
    assert_eq!(functions.len(), 2, "{stdout}");
    let mut per_function = 0;
    for f in functions {
        let f = obj(f);
        per_function += int(obj(lookup(f, "total").expect("total")), "steps");
        for idiom in lookup(f, "idioms").and_then(JsonVal::as_arr).expect("idioms") {
            assert_eq!(int(obj(idiom), "truncated"), 0, "{stdout}");
        }
    }
    assert!(per_function > 0, "the two-accumulator loop branches: {stdout}");
    let module = obj(lookup(doc, "module").expect("module"));
    assert_eq!(int(module, "shared_steps"), per_function, "{stdout}");
    assert!(lookup(doc, "trie").is_none(), "v4 has no trie block: {stdout}");
}
