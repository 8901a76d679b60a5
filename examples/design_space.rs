//! Design-space exploration: how many PFUs does a workload need, and how
//! sensitive is it to reconfiguration latency?
//!
//! Sweeps PFU count × reconfiguration penalty for one MediaBench-style
//! kernel (g721_enc by default; pass another name as the first argument)
//! and prints the speedup surface.
//!
//! ```text
//! cargo run --release -p t1000-core --example design_space [bench]
//! ```

use t1000_core::{SelectConfig, Session, StrategySpec};
use t1000_cpu::{simulate, CpuConfig};
use t1000_isa::FusionMap;
use t1000_workloads::{by_name, Scale};

const PFUS: [usize; 4] = [1, 2, 4, 8];
const PENALTIES: [u32; 4] = [0, 10, 100, 500];

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "g721_enc".to_string());
    let w = by_name(&name, Scale::Test).unwrap_or_else(|| {
        panic!(
            "unknown benchmark `{name}` (try: {:?})",
            t1000_workloads::NAMES
        )
    });

    let session = Session::new(w.program()?)?;
    let baseline = simulate(session.program(), &FusionMap::new(), CpuConfig::baseline())?;
    println!(
        "{name}: {} dynamic instructions, baseline {} cycles ({:.2} IPC)",
        baseline.timing.base_instructions, baseline.timing.cycles, baseline.timing.base_ipc
    );
    println!();

    println!("speedup over baseline (selective algorithm):");
    print!("{:>8}", "pfus\\rc");
    for c in PENALTIES {
        print!("  {c:>7}cy");
    }
    println!();
    for pfus in PFUS {
        let sel = session.select_shared(&StrategySpec::selective(&SelectConfig {
            pfus: Some(pfus),
            gain_threshold: 0.005,
            reload_weight: 0.0,
        }));
        print!("{pfus:>8}");
        for penalty in PENALTIES {
            let run = simulate(
                session.program(),
                &sel.fusion,
                CpuConfig::with_pfus(pfus).reconfig(penalty),
            )?;
            assert_eq!(run.sys, baseline.sys);
            print!("  {:>9.3}", run.speedup_over(&baseline));
        }
        println!("   ({} confs selected)", sel.num_confs());
    }

    println!();
    println!("the flat rows are the paper's §5.2 result: once the selective");
    println!("algorithm caps configurations per loop at the PFU count,");
    println!("reconfigurations are so rare that even a 500-cycle penalty");
    println!("barely registers.");
    Ok(())
}
