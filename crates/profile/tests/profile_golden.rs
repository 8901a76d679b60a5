//! Selection-input goldens for the functional profile.
//!
//! Selection reads two numbers per static instruction from
//! [`ExecProfile`]: its execution count and the widest operand or result
//! it produced. These literals were captured before operand and result
//! values moved out of the dynamic record into the functional core, so
//! any change to which values the profile sees shows up here. (The
//! pipeline goldens cannot catch such a change: both of their sides
//! profile through the same code.)

use t1000_asm::assemble;
use t1000_cpu::FuncCore;
use t1000_isa::{ConfDef, FusedSite, FusionMap, Instr, Program, Reg};
use t1000_profile::ExecProfile;
use t1000_workloads::{Scale, NAMES};

/// `(kernel, total dynamic instructions, FNV-1a fold of every text pc's
/// count and width)` at test scale.
const GOLDEN: [(&str, u64, u64); 8] = [
    ("unepic", 82542, 0x3cc6_9029_ae3e_1450),
    ("epic", 78555, 0x8847_e35a_bfe6_72ef),
    ("gsm_dec", 62831, 0x7963_2c4e_41bb_bf13),
    ("gsm_enc", 55831, 0x25b2_2f3b_cb70_55e7),
    ("g721_dec", 87630, 0x664d_126c_fb49_7385),
    ("g721_enc", 112830, 0x7657_fa39_0140_8dab),
    ("mpeg2_dec", 74212, 0xe455_0018_532a_07cf),
    ("mpeg2_enc", 58216, 0x3aae_79e9_73f0_6cc3),
];

/// FNV-1a over `(count(pc) as u64 LE, width(pc))` for every text pc in
/// order.
fn fold(p: &Program, prof: &ExecProfile) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for k in 0..p.len() as u32 {
        let pc = p.text_base + 4 * k;
        for b in prof
            .count(pc)
            .to_le_bytes()
            .into_iter()
            .chain([prof.width(pc)])
        {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[test]
fn every_kernel_profiles_to_its_golden_counts_and_widths() {
    assert_eq!(GOLDEN.map(|g| g.0), NAMES);
    for (name, total, want) in GOLDEN {
        let p = t1000_workloads::by_name(name, Scale::Test)
            .unwrap()
            .program()
            .unwrap();
        let prof = ExecProfile::collect(&p, 0).unwrap();
        assert_eq!(prof.total, total, "{name}: dynamic instruction count");
        assert_eq!(fold(&p, &prof), want, "{name}: per-pc count/width fold");
    }
}

#[test]
fn results_count_even_when_discarded_and_links_count_none() {
    let p = assemble(
        "
main:
    li   $t0, 0x100000
    addu $zero, $t0, $t0   # result 0x200000 is dropped but still profiled
    jal  f                 # writes $ra, but reports no result
    li   $v0, 10
    syscall
f:  jr   $ra
",
    )
    .unwrap();
    let prof = ExecProfile::collect(&p, 0).unwrap();
    let at = |k: u32| p.text_base + 4 * k;
    // Operands are 22 bits wide; the discarded sum needs 23.
    assert_eq!((prof.count(at(1)), prof.width(at(1))), (1, 23));
    // `jal` reads nothing and reports no result: width 0, though it ran.
    assert_eq!((prof.count(at(2)), prof.width(at(2))), (1, 0));
}

/// Steps `core` once and returns the values it reports.
fn step(core: &mut FuncCore<'_>) -> ([u32; 2], Option<u32>) {
    core.step().unwrap().unwrap();
    let v = core.values();
    (v.srcs, v.result)
}

#[test]
fn jalr_reports_its_target_and_no_result() {
    let p = assemble(
        "
main:
    la   $t1, g
    jalr $t1
    li   $v0, 10
    syscall
g:  jr   $ra
",
    )
    .unwrap();
    let fusion = FusionMap::new();
    let mut c = FuncCore::new(&p, &fusion);
    step(&mut c); // lui
    step(&mut c); // ori
    let g = p.symbol("g").unwrap();
    assert_eq!(step(&mut c), ([g, 0], None), "jalr");
    assert_eq!(c.regs[Reg::RA.index()], p.text_base + 12);
}

#[test]
fn fused_site_reports_its_inputs_and_output() {
    let p = assemble(
        "
main:
    li   $t0, 0x1234
    li   $t1, -77
    sll  $t2, $t0, 4
    addu $t2, $t2, $t1
    xor  $t2, $t2, $t0
    li   $v0, 10
    syscall
",
    )
    .unwrap();
    let start = p.text_base + 8;
    let mut fusion = FusionMap::new();
    let skeleton: Vec<Instr> = (0..3).map(|k| p.instr_at(start + 4 * k).unwrap()).collect();
    fusion.define(ConfDef {
        conf: 0,
        skeleton,
        base_cycles: 3,
        pfu_latency: 1,
    });
    fusion.add_site(FusedSite {
        pc: start,
        len: 3,
        conf: 0,
        inputs: vec![Reg::parse("t0").unwrap(), Reg::parse("t1").unwrap()],
        output: Reg::parse("t2").unwrap(),
    });
    let mut c = FuncCore::new(&p, &fusion);
    assert_eq!(step(&mut c), ([0, 0], Some(0x1234)));
    assert_eq!(step(&mut c), ([0, 0], Some(-77i32 as u32)));
    // The site reports its two inputs as they were before it ran, and
    // its output after.
    assert_eq!(step(&mut c), ([0x1234, -77i32 as u32], Some(78023)));
    assert_eq!(step(&mut c), ([0, 0], Some(10)));
    assert_eq!(step(&mut c), ([10, 0], None), "syscall reads $v0 and $a0");
    assert!(c.finished());
}
