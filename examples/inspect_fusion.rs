//! Inspect exactly what the selector rewired: disassembles a benchmark's
//! hot loop and annotates the fused sites with their configuration ids,
//! inputs/outputs and hardware cost.
//!
//! ```text
//! cargo run --release -p t1000-core --example inspect_fusion [bench]
//! ```

use t1000_core::{SelectConfig, Session, StrategySpec};
use t1000_workloads::{by_name, Scale};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "gsm_enc".to_string());
    let w = by_name(&name, Scale::Test).unwrap_or_else(|| {
        panic!(
            "unknown benchmark `{name}` (try: {:?})",
            t1000_workloads::NAMES
        )
    });
    let session = Session::new(w.program()?)?;
    let sel = session.select_shared(&StrategySpec::selective(&SelectConfig {
        pfus: Some(4),
        gain_threshold: 0.005,
        reload_weight: 0.0,
    }));
    let program = session.program();

    println!(
        "{name}: {} configurations, {} fused sites",
        sel.num_confs(),
        sel.fusion.num_sites()
    );
    println!();

    // Per-configuration summary.
    for c in &sel.confs {
        println!(
            "conf {:>2}: len {} | {} site(s) | {:>3} LUTs, depth {} @ {} bits | gain ~{}",
            c.conf, c.seq_len, c.num_sites, c.cost.luts, c.cost.depth, c.width, c.total_gain
        );
    }
    println!();

    // Annotated listing around each fused site.
    for site in sel.fusion.sites() {
        println!(
            "site @ 0x{:05x}  conf {}  inputs {:?} -> output {}",
            site.pc,
            site.conf,
            site.inputs
                .iter()
                .map(|r| r.to_string())
                .collect::<Vec<_>>(),
            site.output
        );
        for k in 0..site.len {
            let pc = site.pc + 4 * k;
            let i = program.instr_at(pc)?;
            println!("    0x{pc:05x}  | {i}");
        }
    }
    Ok(())
}
