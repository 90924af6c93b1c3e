//! Every `cold_sweep` compile pinned: the catalogue regenerated from the
//! compiler must match `tests/compile_catalogue.txt` line for line. A
//! change that moves a device or host source, a launch configuration, a
//! grid, the optimizer's rewrite counts or a warning fails here, naming
//! the first case that differs. Rewrite the file with
//! `cargo run -p hipacc-bench --bin reproduce -- --bless` when the change
//! is meant.

use hipacc_bench::catalogue;

#[test]
fn compile_catalogue_is_unchanged() {
    let committed = std::fs::read_to_string(catalogue::PATH).expect("read the catalogue");
    let fresh = catalogue::render();
    for (i, (want, got)) in committed.lines().zip(fresh.lines()).enumerate() {
        assert_eq!(
            got,
            want,
            "catalogue row {} differs (rewrite with `reproduce --bless` if meant)",
            i + 1
        );
    }
    assert_eq!(
        fresh.lines().count(),
        committed.lines().count(),
        "catalogue row count differs"
    );
    assert_eq!(fresh, committed, "catalogue text differs (line endings?)");
}
