//! Table 1: the levels of abstraction used to verify the case-study
//! HSMs, printed from the live registry (`parfait::levels`) — the same
//! one the proof pipeline's stage certificates label their claims with.

use parfait::levels::registry;
use parfait_bench::render_table;

fn main() {
    parfait_bench::check_args("table1 [--metrics <path>]", &[], &["--metrics"]);
    let rows: Vec<Vec<String>> = registry()
        .iter()
        .map(|info| {
            vec![info.title.to_string(), info.state.into(), info.io.into(), info.step.into()]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "Table 1: levels of abstraction (state machines in the theory of IPR)",
            &["Level", "State", "I/O", "Step"],
            &rows
        )
    );
    println!("IPR chain: Spec =lockstep= interp =equiv= IR =equiv= Asm =FPS= SoC");
    println!("(composed by parfait::transitive into the top-level theorem)");
    // `--metrics <path>` writes the run manifest (bin, build id,
    // env knobs, metrics snapshot); absent flag is a no-op.
    parfait_bench::emit_manifest("table1", 1, 0);
}
