//! Record-stream goldens for the functional core.
//!
//! Every registry kernel at test scale, under four fusion maps: none,
//! greedy, selective with 2 PFUs, and selective with 2 PFUs where every
//! configuration fails to load. Each case folds every record the core
//! emits (all the fields the timing model can read, addresses included)
//! into one FNV hash, alongside the committed instruction count, the
//! checksum and the fault fallbacks; the unfused cases also fold the
//! operand and result values that bitwidth profiling reads. Each stream
//! is read one `step` at a time and in batches of several sizes, and
//! every reading must match the row. A second table pins where each kind
//! of functional error reaches the pipeline: the error `simulate` returns
//! and the cycle at which it surfaced, with the fast path on and off and
//! under cycle fuel that runs out around it, plus what `execute` returns
//! on the same programs.

use t1000_core::{SelectConfig, Session};
use t1000_cpu::{
    simulate_with, AttrCollector, CpuConfig, DynInstr, ExecError, FuncCore, StepValues,
};
use t1000_isa::{FusionMap, Program};
use t1000_workloads::{Scale, NAMES};
use ExecError::*;

/// The fusion maps each kernel runs under.
const MAPS: [&str; 4] = ["none", "greedy", "selective2", "selective2_faulted"];

/// `(kernel, map, record fold, icount, checksum, fault fallbacks)`.
type Row = (&'static str, &'static str, u64, u64, u64, u64);

#[rustfmt::skip]
const GOLDEN: &[Row] = &[
    ("unepic", "none", 15065939653053768153, 82542, 11232271391566593688, 0),
    ("unepic", "greedy", 5711391547543688955, 82542, 11232271391566593688, 0),
    ("unepic", "selective2", 9063826440614479987, 82542, 11232271391566593688, 0),
    ("unepic", "selective2_faulted", 9981444002453746675, 82542, 11232271391566593688, 4096),
    ("epic", "none", 910531528747924395, 78555, 15732954519062269149, 0),
    ("epic", "greedy", 6998181085988375089, 78555, 15732954519062269149, 0),
    ("epic", "selective2", 4279219068048168001, 78555, 15732954519062269149, 0),
    ("epic", "selective2_faulted", 5157967947926438769, 78555, 15732954519062269149, 4032),
    ("gsm_dec", "none", 14879638550481845040, 62831, 1527538279994675196, 0),
    ("gsm_dec", "greedy", 3058339121773990675, 62831, 1527538279994675196, 0),
    ("gsm_dec", "selective2", 10941602990509798579, 62831, 1527538279994675196, 0),
    ("gsm_dec", "selective2_faulted", 1522238205028730515, 62831, 1527538279994675196, 6800),
    ("gsm_enc", "none", 6295484572204361658, 55831, 15720620720800814667, 0),
    ("gsm_enc", "greedy", 595780356282966167, 55831, 15720620720800814667, 0),
    ("gsm_enc", "selective2", 10218315435684587767, 55831, 15720620720800814667, 0),
    ("gsm_enc", "selective2_faulted", 5065671586543234759, 55831, 15720620720800814667, 5400),
    ("g721_dec", "none", 8983086758402748875, 87630, 7103170189824984311, 0),
    ("g721_dec", "greedy", 11055036332875820111, 87630, 7103170189824984311, 0),
    ("g721_dec", "selective2", 7792068389828904615, 87630, 7103170189824984311, 0),
    ("g721_dec", "selective2_faulted", 7608662697796646659, 87630, 7103170189824984311, 2400),
    ("g721_enc", "none", 8173222049414754263, 112830, 478146678883901283, 0),
    ("g721_enc", "greedy", 14964096343077950872, 112830, 478146678883901283, 0),
    ("g721_enc", "selective2", 15706651970973958308, 112830, 478146678883901283, 0),
    ("g721_enc", "selective2_faulted", 573521333773185732, 112830, 478146678883901283, 3600),
    ("mpeg2_dec", "none", 4676065434607744575, 74212, 2946428505603914414, 0),
    ("mpeg2_dec", "greedy", 16653753373355417365, 74212, 2946428505603914414, 0),
    ("mpeg2_dec", "selective2", 7071049503084297045, 74212, 2946428505603914414, 0),
    ("mpeg2_dec", "selective2_faulted", 11813097947141204821, 74212, 2946428505603914414, 2400),
    ("mpeg2_enc", "none", 10431800348226336044, 58216, 5180046800138827689, 0),
    ("mpeg2_enc", "greedy", 15606949992766944998, 58216, 5180046800138827689, 0),
    ("mpeg2_enc", "selective2", 7176090448059617382, 58216, 5180046800138827689, 0),
    ("mpeg2_enc", "selective2_faulted", 8735431211560077926, 58216, 5180046800138827689, 1600),
];

/// FNV-1a over the little-endian bytes of `v`.
fn fold(h: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0100_0000_01b3);
    }
}

fn opt(v: Option<u64>) -> u64 {
    v.map_or(0, |v| v + 1)
}

/// Folds every field of `rec` the timing model can read.
fn fold_record(h: &mut u64, rec: &DynInstr) {
    let reg = |r: Option<t1000_isa::Reg>| opt(r.map(|r| r.index() as u64));
    let [u0, u1] = rec.gpr_uses();
    for v in [
        u64::from(rec.pc),
        opt(rec.mem().map(|(a, w)| u64::from(a) << 1 | u64::from(w))),
        u64::from(rec.latency),
        u64::from(rec.fused_len),
        opt(rec.conf().map(u64::from)),
        rec.class as u64,
        reg(rec.gpr_def()),
        reg(u0),
        reg(u1),
        u64::from(rec.hilo_def()),
        u64::from(rec.hilo_use()),
        opt(rec.taken().map(u64::from)),
        u64::from(rec.backward()),
    ] {
        fold(h, v);
    }
}

/// Folds the values of one record.
fn fold_values(h: &mut u64, v: StepValues) {
    fold(h, u64::from(v.srcs[0]));
    fold(h, u64::from(v.srcs[1]));
    fold(h, opt(v.result.map(u64::from)));
}

/// Runs a core over `fusion` to the end, one `step` at a time or in
/// batches of `batch` records, and returns the golden row's measured
/// fields.
fn measure(
    p: &Program,
    fusion: &FusionMap,
    faults: &[u16],
    values: bool,
    batch: Option<usize>,
) -> (u64, u64, u64, u64) {
    let mut core = FuncCore::new(p, fusion);
    core.inject_conf_faults(faults.iter().copied());
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    match batch {
        None => {
            while let Some(rec) = core.step().unwrap() {
                fold_record(&mut h, &rec);
                if values {
                    fold_values(&mut h, core.values());
                }
            }
        }
        Some(n) => {
            // Values are folded as the loop reports them, records once
            // each batch is back: the two interleave per record again.
            let mut seen = Vec::new();
            let mut out = Vec::new();
            while !core.finished() {
                out.clear();
                core.run(&mut out, n, &mut |_: &DynInstr, v: StepValues| seen.push(v))
                    .unwrap();
                assert!(!out.is_empty() && out.len() <= n);
                for (k, rec) in out.iter().enumerate() {
                    fold_record(&mut h, rec);
                    if values {
                        fold_values(&mut h, seen[k]);
                    }
                }
                seen.clear();
            }
        }
    }
    assert!(core.finished());
    (h, core.icount, core.sys.checksum, core.conf_fault_fallbacks)
}

#[test]
fn record_streams_match_their_goldens() {
    let mut got = Vec::new();
    for name in NAMES {
        let w = t1000_workloads::by_name(name, Scale::Test).unwrap();
        let session = Session::new(w.program().unwrap()).unwrap();
        let p = session.program();
        let greedy = session.greedy();
        let selective = session.selective(&SelectConfig {
            pfus: Some(2),
            ..SelectConfig::default()
        });
        let every: Vec<u16> = selective.fusion.defs().map(|d| d.conf).collect();
        let none = FusionMap::new();
        let cases: [(&FusionMap, &[u16]); 4] = [
            (&none, &[]),
            (&greedy.fusion, &[]),
            (&selective.fusion, &[]),
            (&selective.fusion, &every),
        ];
        for (map, (fusion, faults)) in MAPS.into_iter().zip(cases) {
            let values = map == "none";
            let (h, icount, checksum, fallbacks) = measure(p, fusion, faults, values, None);
            got.push((name, map, h, icount, checksum, fallbacks));
            // Batches of any size emit the same stream and values.
            for batch in [1, 7, 256] {
                let row = measure(p, fusion, faults, values, Some(batch));
                assert_eq!(
                    row,
                    (h, icount, checksum, fallbacks),
                    "{name} {map} batch {batch}"
                );
            }
            if map == "selective2_faulted" {
                // With every configuration faulted each site runs its
                // scalar code, values included: the unfused stream again.
                let unfused = got[got.len() - MAPS.len()].2;
                for batch in [None, Some(256)] {
                    let (h, ..) = measure(p, fusion, faults, true, batch);
                    assert_eq!(h, unfused, "{name} {map} values, batch {batch:?}");
                }
            }
        }
    }
    assert_eq!(got.len(), NAMES.len() * MAPS.len());
    assert_eq!(GOLDEN.len(), got.len());
    for (g, w) in got.iter().zip(GOLDEN) {
        assert_eq!(g, w, "{} under {}", g.0, g.1);
    }
}

/// `(case, fast path, error, cycle)`: the error `simulate` returns and
/// the cycles classified before it, on the case's own budget and then
/// on cycle fuel that runs out two cycles before the error's cycle, one
/// before, at it and one after.
#[rustfmt::skip]
const FAULTS: &[(&str, bool, ExecError, u64)] = &[
    ("decode", true, Decode(4194384, 67436544), 632),
    ("decode", true, CycleLimit(630), 630),
    ("decode", true, CycleLimit(631), 631),
    ("decode", true, Decode(4194384, 67436544), 632),
    ("decode", true, Decode(4194384, 67436544), 632),
    ("decode", false, Decode(4194384, 67436544), 636),
    ("decode", false, CycleLimit(634), 634),
    ("decode", false, CycleLimit(635), 635),
    ("decode", false, CycleLimit(636), 636),
    ("decode", false, Decode(4194384, 67436544), 636),
    ("escape", true, PcOutOfRange(5242940), 532),
    ("escape", true, CycleLimit(530), 530),
    ("escape", true, CycleLimit(531), 531),
    ("escape", true, PcOutOfRange(5242940), 532),
    ("escape", true, PcOutOfRange(5242940), 532),
    ("escape", false, PcOutOfRange(5242940), 535),
    ("escape", false, CycleLimit(533), 533),
    ("escape", false, CycleLimit(534), 534),
    ("escape", false, CycleLimit(535), 535),
    ("escape", false, PcOutOfRange(5242940), 535),
    ("unaligned", true, Unaligned { pc: 4194352, addr: 268435458, width: 4 }, 435),
    ("unaligned", true, CycleLimit(433), 433),
    ("unaligned", true, CycleLimit(434), 434),
    ("unaligned", true, Unaligned { pc: 4194352, addr: 268435458, width: 4 }, 435),
    ("unaligned", true, Unaligned { pc: 4194352, addr: 268435458, width: 4 }, 435),
    ("unaligned", false, Unaligned { pc: 4194352, addr: 268435458, width: 4 }, 437),
    ("unaligned", false, CycleLimit(435), 435),
    ("unaligned", false, CycleLimit(436), 436),
    ("unaligned", false, CycleLimit(437), 437),
    ("unaligned", false, Unaligned { pc: 4194352, addr: 268435458, width: 4 }, 437),
    ("syscall", true, BadSyscall { pc: 4194356, code: 77 }, 938),
    ("syscall", true, CycleLimit(936), 936),
    ("syscall", true, CycleLimit(937), 937),
    ("syscall", true, BadSyscall { pc: 4194356, code: 77 }, 938),
    ("syscall", true, BadSyscall { pc: 4194356, code: 77 }, 938),
    ("syscall", false, BadSyscall { pc: 4194356, code: 77 }, 944),
    ("syscall", false, CycleLimit(942), 942),
    ("syscall", false, CycleLimit(943), 943),
    ("syscall", false, CycleLimit(944), 944),
    ("syscall", false, BadSyscall { pc: 4194356, code: 77 }, 944),
    ("spin", true, InstrLimit(20000), 9534),
    ("spin", true, CycleLimit(9532), 9532),
    ("spin", true, CycleLimit(9533), 9533),
    ("spin", true, InstrLimit(20000), 9534),
    ("spin", true, InstrLimit(20000), 9534),
    ("spin", false, InstrLimit(20000), 9534),
    ("spin", false, CycleLimit(9532), 9532),
    ("spin", false, CycleLimit(9533), 9533),
    ("spin", false, CycleLimit(9534), 9534),
    ("spin", false, InstrLimit(20000), 9534),
    ("mid_loop_budget", true, InstrLimit(1234), 443),
    ("mid_loop_budget", true, CycleLimit(441), 441),
    ("mid_loop_budget", true, CycleLimit(442), 442),
    ("mid_loop_budget", true, InstrLimit(1234), 443),
    ("mid_loop_budget", true, InstrLimit(1234), 443),
    ("mid_loop_budget", false, InstrLimit(1234), 444),
    ("mid_loop_budget", false, CycleLimit(442), 442),
    ("mid_loop_budget", false, CycleLimit(443), 443),
    ("mid_loop_budget", false, CycleLimit(444), 444),
    ("mid_loop_budget", false, InstrLimit(1234), 444),
    ("exact_budget", true, InstrLimit(2406), 737),
    ("exact_budget", true, CycleLimit(735), 735),
    ("exact_budget", true, CycleLimit(736), 736),
    ("exact_budget", true, CycleLimit(737), 737),
    ("exact_budget", true, InstrLimit(2406), 737),
    ("exact_budget", false, InstrLimit(2406), 737),
    ("exact_budget", false, CycleLimit(735), 735),
    ("exact_budget", false, CycleLimit(736), 736),
    ("exact_budget", false, CycleLimit(737), 737),
    ("exact_budget", false, InstrLimit(2406), 737),
];

/// What `execute` returns: the checksum and committed instructions, or
/// the error.
type Executed = Result<(u64, u64), ExecError>;

/// `(case, execute's result)`.
#[rustfmt::skip]
const EXECUTED: &[(&str, Executed)] = &[
    ("decode", Err(Decode(4194384, 67436544))),
    ("escape", Err(PcOutOfRange(5242940))),
    ("unaligned", Err(Unaligned { pc: 4194352, addr: 268435458, width: 4 })),
    ("syscall", Err(BadSyscall { pc: 4194356, code: 77 })),
    ("spin", Err(InstrLimit(20000))),
    ("mid_loop_budget", Err(InstrLimit(1234))),
    ("exact_budget", Ok((14695981039346656037, 2406))),
];

/// The error `simulate` returns on `p` under `cfg`, and the cycles
/// classified before it surfaced.
fn fault_at(p: &Program, cfg: CpuConfig) -> (ExecError, u64) {
    let mut sink = AttrCollector::new();
    let e = simulate_with(p, &FusionMap::new(), cfg, &mut sink).unwrap_err();
    (e, sink.attr.total_cycles)
}

/// A loop of 300 iterations whose iteration 100 sets `$t6` to 1 and
/// `$t7` to all ones (both are 0 otherwise), with `body` at the end of
/// each iteration and `tail` after the loop. Every iteration emits
/// records of the same shape, so the fast path replays the loop and an
/// error in iteration 100 is pulled mid-segment.
fn looped(body: &str, tail: &str) -> Program {
    t1000_asm::assemble(&format!(
        "
.data
buf: .space 64
.text
main:
    la   $s0, buf
    li   $t0, 300
    li   $t1, 0
loop:
    addu $t1, $t1, $t0
    sw   $t1, 0($s0)
    lw   $t2, 0($s0)
    xori $t3, $t0, 200
    sltiu $t6, $t3, 1
    subu $t7, $zero, $t6
{body}
    addiu $t0, $t0, -1
    bgtz $t0, loop
{tail}
end:
"
    ))
    .unwrap()
}

#[test]
fn functional_errors_surface_where_they_did() {
    // An undecodable word: REGIMM with an rt selector that names no branch.
    const BAD: u32 = (1 << 26) | (5 << 16);
    let mut decode = looped(
        "    la   $t4, next\n    la   $t5, end\n    subu $t5, $t5, $t4\n    and  $t5, $t5, $t7\n    addu $t4, $t4, $t5\n    jr   $t4\nnext:",
        "",
    );
    decode.text.push(BAD);
    let escape = looped(
        "    la   $t4, next\n    sll  $t5, $t6, 20\n    addu $t4, $t4, $t5\n    jr   $t4\nnext:",
        "",
    );
    let unaligned = looped(
        "    sll  $t5, $t6, 1\n    addu $t5, $t5, $s0\n    lw   $t5, 0($t5)",
        "",
    );
    let syscall = looped(
        "    andi $t5, $t7, 47\n    addiu $v0, $t5, 30\n    move $a0, $t1\n    syscall",
        "",
    );
    let spin = looped(
        "",
        "    li   $t0, 1\nspin:\n    addiu $t1, $t1, 1\n    bgtz $t0, spin",
    );
    let exits = looped("", "    li   $v0, 10\n    syscall");
    let ran = t1000_cpu::execute(&exits, &FusionMap::new(), 0).unwrap().1;

    let limited = |n: u64| CpuConfig {
        max_instructions: n,
        ..CpuConfig::baseline()
    };
    let cases: Vec<(&str, &Program, CpuConfig)> = vec![
        ("decode", &decode, CpuConfig::baseline()),
        ("escape", &escape, CpuConfig::baseline()),
        ("unaligned", &unaligned, CpuConfig::baseline()),
        ("syscall", &syscall, CpuConfig::baseline()),
        ("spin", &spin, limited(20_000)),
        ("mid_loop_budget", &exits, limited(1_234)),
        ("exact_budget", &exits, limited(ran)),
    ];
    let mut got = Vec::new();
    let mut executed = Vec::new();
    for (name, p, cfg) in cases {
        let run = t1000_cpu::execute(p, &FusionMap::new(), cfg.max_instructions);
        executed.push((name, run.map(|(sys, icount)| (sys.checksum, icount))));
        for fast_path in [true, false] {
            let (e, cycle) = fault_at(p, CpuConfig { fast_path, ..cfg });
            got.push((name, fast_path, e, cycle));
            // Fuel that runs out just before, at and after the error's
            // cycle.
            for max_cycles in cycle - 2..=cycle + 1 {
                let (e, at) = fault_at(
                    p,
                    CpuConfig {
                        fast_path,
                        max_cycles,
                        ..cfg
                    },
                );
                got.push((name, fast_path, e, at));
            }
        }
    }
    assert_eq!(got, FAULTS);
    assert_eq!(executed, EXECUTED);
}
