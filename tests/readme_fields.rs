//! README names the fields of the recorded `BENCH_*.json` files; this keeps the prose
//! and the files from drifting apart: every field README quotes for a file must occur
//! both in README.md and in the checked-in file.

const QUOTED: [(&str, &str); 5] = [
    (
        "BENCH_micro.json",
        "median_us naive_median_us speedup_vs_naive",
    ),
    (
        "BENCH_fig7.json",
        "tempo_kops atlas_kops fpaxos_kops tempo_over_fpaxos tempo_over_atlas",
    ),
    (
        "BENCH_load.json",
        "commit cores date offered_rate achieved_rate lat_p50_ms lat_p999_ms lat_max_ms",
    ),
    (
        "BENCH_fig6.json",
        "commit cores date lat_mean_ms lat_max_ms",
    ),
    ("BENCH_trace.json", "commit cores date"),
];

#[test]
fn readme_quotes_fields_the_bench_files_contain() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let read = |name: &str| std::fs::read_to_string(root.join(name)).expect(name);
    let readme = read("README.md");
    for (file, fields) in QUOTED {
        let recorded = read(file);
        for field in fields.split(' ') {
            assert!(
                readme.contains(&format!("`{field}`")),
                "README no longer quotes `{field}` for {file}: drop it from this table"
            );
            assert!(
                recorded.contains(&format!("\"{field}\"")),
                "README quotes `{field}` but {file} does not contain it"
            );
        }
    }
}
