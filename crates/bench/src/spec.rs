//! The cell spec: one typed parser from a front end's (key, value) pairs
//! to the [`Cell`] they ask for. `t1000 run`, `select`, `bench` and
//! `serve` differ only in how they spell the keys they admit
//! ([`SPELLING`]) and in their PFU default; the defaults, range checks,
//! registry lookup and the refusal of a key the strategy does not read
//! live here, once. Values are JSON; [`cli_value`] reads command-line
//! text as the JSON value it spells.

use crate::json::Json;
use crate::plan::{Cell, MachineSpec, SelectionSpec};
use crate::results::scale_str;
use std::borrow::Borrow;
use t1000_core::SelectConfig;
use t1000_cpu::{CpuConfig, PfuCount};
use t1000_workloads::{Scale, Workload};

/// The knapsack's LUT budget when none is given.
pub const LUT_BUDGET: u32 = 256;

/// The most PFUs a cell may have: the 11-bit `Conf` field names at most
/// 2048 configurations, and the simulator allocates a slot per PFU.
pub const MAX_PFUS: usize = 1 << 11;

/// What a key sets. The machine's keys come last, from `MachinePfus`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Key {
    Workload,
    Scale,
    Strategy,
    /// The flag naming the greedy strategy.
    Greedy,
    /// PFUs the selective strategy selects for; the machine's count too
    /// unless `MachinePfus` sets it.
    Pfus,
    Threshold,
    LutBudget,
    ReloadWeight,
    /// The machine's PFU count, or `unlimited`.
    MachinePfus,
    Reconfig,
    Planes,
    Prefetch,
    Compress,
}

/// The front ends, in the column order of [`SPELLING`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Front {
    Run,
    Select,
    Bench,
    Serve,
}

/// Each key as `run`, `select`, `bench` and `serve` spell it, `""` where
/// the front end does not admit it. `run` and `select` take the benchmark
/// as `bench:NAME`; `serve` flattens its `machine` object to
/// `machine.KEY`.
#[rustfmt::skip]
pub const SPELLING: [(Key, [&str; 4]); 13] = [
    //                  run              select           bench            serve
    (Key::Workload,     ["benchmark",    "benchmark",     "benchmark",     "workload"]),
    (Key::Scale,        ["scale",        "scale",         "scale",         "scale"]),
    (Key::Strategy,     ["",             "strategy",      "",              "strategy"]),
    (Key::Greedy,       ["greedy",       "greedy",        "",              ""]),
    (Key::Pfus,         ["",             "pfus",          "pfus",          "pfus"]),
    (Key::Threshold,    ["threshold",    "threshold",     "",              "threshold"]),
    (Key::LutBudget,    ["",             "lut-budget",    "",              "lut_budget"]),
    (Key::ReloadWeight, ["reload-weight", "reload-weight", "",             ""]),
    (Key::MachinePfus,  ["pfus",         "",              "",              "machine.pfus"]),
    (Key::Reconfig,     ["reconfig",     "",              "",              "machine.reconfig_cycles"]),
    (Key::Planes,       ["pfu-planes",   "",              "pfu-planes",    "machine.pfu_planes"]),
    (Key::Prefetch,     ["pfu-prefetch", "",              "pfu-prefetch",  "machine.pfu_prefetch"]),
    (Key::Compress,     ["conf-compress", "",             "conf-compress", "machine.conf_compress"]),
];

impl Front {
    /// The key spelled `name` here, with its spelling.
    fn key(self, name: &str) -> Option<(&'static str, Key)> {
        let mut spelled = SPELLING.iter().map(|&(key, s)| (s[self as usize], key));
        spelled.find(|&(s, _)| !s.is_empty() && s == name)
    }

    /// Whether this front end admits the key spelled `name`.
    pub fn admits(self, name: &str) -> bool {
        self.key(name).is_some()
    }

    /// PFUs when no key gives a count; `None` makes that the baseline.
    fn pfus(self) -> Option<usize> {
        [None, Some(4), Some(2), Some(2)][self as usize]
    }

    fn error(self, spelling: &str, says: &str) -> SpecError {
        let key = match self {
            Front::Serve => format!("`{spelling}`"),
            // The benchmark is a positional argument, not an option.
            _ if spelling == "benchmark" => spelling.to_string(),
            _ => format!("--{spelling}"),
        };
        let message = match self {
            Front::Serve => format!("{key} {says}"),
            _ => format!(
                "{}: {key} {says}",
                ["run", "select", "bench"][self as usize]
            ),
        };
        SpecError { key, message }
    }
}

/// Command-line text as the JSON value it spells, or else as a number or
/// a string; a flag (`None`) is `true`.
pub fn cli_value(text: Option<&str>) -> Json {
    let Some(text) = text else {
        return Json::Bool(true);
    };
    let number = || text.parse().ok().map(Json::Float);
    let json = Json::parse(text).ok().or_else(number);
    json.unwrap_or_else(|| Json::Str(text.to_string()))
}

/// A parsed cell, with the registry workload it names.
pub struct CellSpec {
    pub cell: Cell,
    pub scale: Scale,
    /// The registry workload at `scale`; `None` when the front end loads
    /// the program itself (the cell's workload is then `adhoc`).
    pub workload: Option<Workload>,
}

/// A refused key, named as in the message (`--pfus`, `` `pfus` ``).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpecError {
    pub key: String,
    pub message: String,
}

/// A front end's pairs, resolved to its keys.
struct Given<'g, V>(Front, &'g [(&'static str, Key, V)]);

impl<V: Borrow<Json>> Given<'_, V> {
    /// The last value given for `key`, read by `f` or refused as not
    /// `expected`.
    fn read<T>(
        &self,
        key: Key,
        expected: &str,
        f: impl Fn(&Json) -> Option<T>,
    ) -> Result<Option<T>, SpecError> {
        let Some((name, _, value)) = self.1.iter().rev().find(|g| g.1 == key) else {
            return Ok(None);
        };
        let value = value.borrow();
        let got = || format!("must be {expected}, got {}", value.to_string_compact());
        f(value).map(Some).ok_or_else(|| self.0.error(name, &got()))
    }
}

fn count(v: &Json) -> Option<usize> {
    let n = usize::try_from(v.as_u64()?).ok()?;
    (n <= MAX_PFUS).then_some(n)
}

fn pfu_count(v: &Json) -> Option<PfuCount> {
    match v.as_str() {
        Some("unlimited") => Some(PfuCount::Unlimited),
        _ => count(v).map(PfuCount::Fixed),
    }
}

fn u32(v: &Json) -> Option<u32> {
    u32::try_from(v.as_u64()?).ok()
}

/// Parses `pairs`, keys spelled as `front` spells them, into the cell
/// they ask for. A key `front` does not admit, a value of the wrong type
/// or range, and a key the strategy does not read are refused with an
/// error naming the key. A baseline cell is always the canonical
/// `MachineSpec::with_pfus(0, 0)`.
pub fn parse<K: AsRef<str>, V: Borrow<Json>>(
    front: Front,
    pairs: impl IntoIterator<Item = (K, V)>,
) -> Result<CellSpec, SpecError> {
    let mut given = Vec::new();
    for (name, value) in pairs {
        let name = name.as_ref();
        let unknown = || front.error(name, "is not a known parameter");
        let (name, key) = front.key(name).ok_or_else(unknown)?;
        given.push((name, key, value));
    }
    let g = Given(front, &given);
    let scale = g.read(Key::Scale, "test|full", |v| {
        [Scale::Test, Scale::Full]
            .into_iter()
            .find(|&s| v.as_str() == Some(scale_str(s)))
    })?;
    let strategies = ["baseline", "greedy", "selective", "knapsack"];
    let strategy = g.read(Key::Strategy, "baseline|greedy|selective|knapsack", |v| {
        strategies.into_iter().find(|&s| v.as_str() == Some(s))
    })?;
    let greedy = g.read(Key::Greedy, "a flag", |v| v.as_bool()?.then_some("greedy"))?;
    let pfus = g.read(Key::Pfus, "a count in 0..=2048", count)?;
    let machine_pfus = g.read(Key::MachinePfus, "a count or unlimited", pfu_count)?;
    let threshold = g.read(Key::Threshold, "a number", Json::as_f64)?;
    let reload_weight = g.read(Key::ReloadWeight, "a number", Json::as_f64)?;
    let u32_range = "an integer in 0..=4294967295";
    let lut_budget = g.read(Key::LutBudget, u32_range, u32)?;
    let reconfig = g.read(Key::Reconfig, u32_range, u32)?;
    let prefetch = g.read(Key::Prefetch, u32_range, u32)?;
    let planes = g.read(Key::Planes, "1 or 2", |v| {
        u32(v).filter(|n| (1..=2).contains(n))
    })?;
    // `+ 0.0` makes `-0` the same cell as `0`: off.
    let compress = g.read(Key::Compress, "a finite ratio >= 0", |v| {
        let r = v.as_f64()?;
        (r.is_finite() && r >= 0.0).then_some(r + 0.0)
    })?;
    let has = |key| given.iter().any(|g| g.1 == key);
    if has(Key::Greedy) && has(Key::Strategy) {
        // Only `select` admits both.
        return Err(front.error("greedy", "is --strategy greedy; give one of them"));
    }

    // With no PFU default, no PFUs (or 0) is the baseline cell.
    let machine_count = machine_pfus.or(pfus.or(front.pfus()).map(PfuCount::Fixed));
    let machine_count = machine_count.unwrap_or(PfuCount::Fixed(0));
    let no_pfus = front.pfus().is_none() && machine_count == PfuCount::Fixed(0);
    let default = if no_pfus { "baseline" } else { "selective" };
    let algorithm = strategy.or(greedy).unwrap_or(default);
    let reads = |key| match key {
        Key::Workload | Key::Scale => true,
        Key::Strategy | Key::Greedy => !no_pfus,
        Key::Pfus | Key::MachinePfus if no_pfus => true,
        Key::Threshold => algorithm == "selective",
        Key::ReloadWeight => matches!(algorithm, "selective" | "knapsack"),
        Key::LutBudget => algorithm == "knapsack",
        // `select` runs no machine: only the selective strategy reads PFUs.
        Key::Pfus if front == Front::Select => algorithm == "selective",
        _ => algorithm != "baseline",
    };
    // The strategy's own key first: `--greedy` without PFUs is the mistake
    // behind any selection key given with it.
    let strategy_keys = given
        .iter()
        .filter(|g| matches!(g.1, Key::Strategy | Key::Greedy));
    if let Some(&(name, key, _)) = strategy_keys.chain(&given).find(|g| !reads(g.1)) {
        let verb = if key >= Key::MachinePfus {
            "configures"
        } else {
            "selects for"
        };
        let says = match no_pfus {
            // Only `run` has no PFU default.
            true => format!("{verb} PFUs; give --pfus N (N > 0)"),
            false => format!("does not apply to the {algorithm} strategy"),
        };
        return Err(front.error(name, &says));
    }

    // The strategy's configurations need PFUs to run on: a machine with
    // none runs only the baseline.
    if algorithm != "baseline" && front != Front::Select && machine_count == PfuCount::Fixed(0) {
        let key = if machine_pfus.is_some() {
            Key::MachinePfus
        } else {
            Key::Pfus
        };
        if let Some(&(name, _, _)) = given.iter().rev().find(|g| g.1 == key) {
            let says = format!("must be at least 1 for the {algorithm} strategy");
            return Err(front.error(name, &says));
        }
    }

    let scale = scale.unwrap_or(Scale::Test);
    let names = format!("one of {:?}", t1000_workloads::NAMES);
    let workload = g.read(Key::Workload, &names, |v| {
        t1000_workloads::by_name(v.as_str()?, scale)
    })?;
    let reload_weight_bits = reload_weight.unwrap_or(0.0).to_bits();
    let selection = match algorithm {
        "baseline" => SelectionSpec::Baseline,
        "greedy" => SelectionSpec::Greedy,
        "selective" => SelectionSpec::Selective {
            // An unlimited machine selects for unlimited PFUs.
            pfus: pfus
                .or(front.pfus())
                .or(machine_pfus.and_then(PfuCount::limit)),
            gain_threshold_bits: threshold
                .unwrap_or(SelectConfig::default().gain_threshold)
                .to_bits(),
            reload_weight_bits,
        },
        _ => SelectionSpec::Knapsack {
            lut_budget: lut_budget.unwrap_or(LUT_BUDGET),
            reload_weight_bits,
        },
    };
    let machine = match selection {
        SelectionSpec::Baseline => MachineSpec::with_pfus(0, 0),
        _ => MachineSpec {
            pfus: machine_count,
            reconfig_cycles: reconfig.unwrap_or(CpuConfig::default().reconfig_cycles),
            pfu_planes: planes.unwrap_or(1),
            pfu_prefetch: prefetch.unwrap_or(0),
            conf_compress_bits: compress.unwrap_or(0.0).to_bits(),
            ..MachineSpec::with_pfus(0, 0)
        },
    };
    let label = workload.as_ref().map_or("adhoc", |w| w.name);
    Ok(CellSpec {
        cell: Cell::new(label, selection, machine),
        scale,
        workload,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn text(front: Front, pairs: &[(&str, &str)]) -> Result<CellSpec, SpecError> {
        parse(front, pairs.iter().map(|&(k, v)| (k, cli_value(Some(v)))))
    }

    fn json(front: Front, pairs: &[(&str, &str)]) -> Result<CellSpec, SpecError> {
        parse(
            front,
            pairs.iter().map(|&(k, v)| (k, Json::parse(v).unwrap())),
        )
    }

    const FRONTS: [Front; 4] = [Front::Run, Front::Select, Front::Bench, Front::Serve];

    /// Every key each front end admits reads the same from command-line
    /// text as from the JSON value that text spells: the same cell, or an
    /// error naming the same key.
    #[test]
    fn cli_text_and_json_give_the_same_cell_or_name_the_same_key() {
        let values = [
            ("2", "2"),
            ("0", "0"),
            ("1", "1"),
            ("-1", "-1"),
            ("0.5", "0.5"),
            ("-0", "-0"),
            ("2049", "2049"),
            ("4294967296", "4294967296"),
            ("18446744073709551615", "18446744073709551615"),
            ("1e300", "1e300"),
            ("unlimited", "\"unlimited\""),
            ("full", "\"full\""),
            ("knapsack", "\"knapsack\""),
            ("baseline", "\"baseline\""),
            ("g721_enc", "\"g721_enc\""),
            ("nope", "\"nope\""),
        ];
        // Each key alone, beside a PFU count, and under two strategies.
        let contexts: [&[(&str, &str, &str)]; 4] = [
            &[],
            &[("pfus", "2", "2")],
            &[("strategy", "knapsack", "\"knapsack\"")],
            &[("strategy", "greedy", "\"greedy\"")],
        ];
        let mut compared = 0;
        for front in FRONTS {
            for (key, spelled) in SPELLING {
                let name = spelled[front as usize];
                if name.is_empty() || key == Key::Greedy {
                    continue; // a flag has no value to spell
                }
                for context in contexts {
                    if !context.iter().all(|c| front.admits(c.0)) {
                        continue;
                    }
                    for (t, j) in values {
                        let mut as_text: Vec<_> = context.iter().map(|c| (c.0, c.1)).collect();
                        let mut as_json: Vec<_> = context.iter().map(|c| (c.0, c.2)).collect();
                        as_text.push((name, t));
                        as_json.push((name, j));
                        let case = format!("{front:?} {as_text:?}");
                        match (text(front, &as_text), json(front, &as_json)) {
                            (Ok(a), Ok(b)) => {
                                assert_eq!((a.cell, a.scale), (b.cell, b.scale), "{case}")
                            }
                            (Err(a), Err(b)) => assert_eq!(a.key, b.key, "{case}"),
                            (a, b) => {
                                panic!("{case}: {:?} vs {:?}", a.map(|s| s.cell), b.map(|s| s.cell))
                            }
                        }
                        compared += 1;
                    }
                }
            }
        }
        assert!(compared > 500, "{compared}");
    }

    #[test]
    fn the_defaults_are_the_front_ends_own() {
        let cell = |front| text(front, &[]).unwrap().cell;
        let baseline = Cell::new(
            "adhoc",
            SelectionSpec::Baseline,
            MachineSpec::with_pfus(0, 0),
        );
        assert_eq!(cell(Front::Run), baseline);
        assert_eq!(
            cell(Front::Select).selection,
            SelectionSpec::selective_std(Some(4))
        );
        for front in [Front::Bench, Front::Serve] {
            assert_eq!(
                cell(front),
                Cell::new(
                    "adhoc",
                    SelectionSpec::selective_std(Some(2)),
                    MachineSpec::with_pfus(2, 10)
                )
            );
        }
        let knapsack = json(Front::Serve, &[("strategy", "\"knapsack\"")]).unwrap();
        assert_eq!(knapsack.cell.selection, SelectionSpec::knapsack(LUT_BUDGET));
        // `run --pfus unlimited` selects for unlimited PFUs; `--pfus 0` is
        // the baseline.
        let unlimited = text(Front::Run, &[("pfus", "unlimited")]).unwrap().cell;
        assert_eq!(unlimited.selection, SelectionSpec::selective_std(None));
        assert_eq!(unlimited.machine, MachineSpec::unlimited(10));
        assert_eq!(text(Front::Run, &[("pfus", "0")]).unwrap().cell, baseline);
        // A registry benchmark labels the cell and carries its scale.
        let named = text(
            Front::Bench,
            &[("benchmark", "g721_enc"), ("scale", "full")],
        );
        let named = named.unwrap();
        assert_eq!(
            (named.cell.workload, named.scale),
            ("g721_enc", Scale::Full)
        );
        assert_eq!(named.workload.map(|w| w.name), Some("g721_enc"));
    }

    #[test]
    fn integers_are_range_checked_not_truncated() {
        for (key, value) in [
            ("lut_budget", "4294967496"),
            ("machine.pfu_planes", "4294967297"),
            ("machine.reconfig_cycles", "4294967306"),
            ("machine.pfu_prefetch", "4294967296"),
            ("machine.pfu_planes", "0"),
            ("pfus", "2049"),
            ("machine.pfus", "18446744073709551615"),
        ] {
            let e = json(Front::Serve, &[(key, value)]).err();
            let e = e.unwrap_or_else(|| panic!("{key} = {value} accepted"));
            assert_eq!(e.key, format!("`{key}`"));
            assert!(e.message.contains("must be"), "{}", e.message);
        }
        let e = text(Front::Select, &[("lut-budget", "4294967496")])
            .err()
            .unwrap();
        assert_eq!(e.key, "--lut-budget");
    }

    #[test]
    fn a_baseline_cell_is_canonical_and_reads_no_pfu_key() {
        let base = json(Front::Serve, &[("strategy", "\"baseline\"")]).unwrap();
        assert_eq!(base.cell.machine, MachineSpec::with_pfus(0, 0));
        for key in [
            "pfus",
            "machine.pfus",
            "machine.reconfig_cycles",
            "machine.pfu_planes",
            "machine.pfu_prefetch",
            "machine.conf_compress",
        ] {
            let e = json(Front::Serve, &[("strategy", "\"baseline\""), (key, "1")])
                .err()
                .unwrap();
            assert_eq!(
                e.message,
                format!("`{key}` does not apply to the baseline strategy")
            );
        }
        for key in ["reconfig", "pfu-planes", "pfu-prefetch", "conf-compress"] {
            let e = text(Front::Run, &[(key, "1")]).err().unwrap();
            assert_eq!(
                e.message,
                format!("run: --{key} configures PFUs; give --pfus N (N > 0)")
            );
        }
    }

    #[test]
    fn a_key_the_strategy_does_not_read_is_refused() {
        // `select` runs no machine, so greedy reads no PFU count there;
        // `serve` and `run` give it to the machine.
        let e = text(Front::Select, &[("strategy", "greedy"), ("pfus", "2")])
            .err()
            .unwrap();
        assert_eq!(
            e.message,
            "select: --pfus does not apply to the greedy strategy"
        );
        let served = json(Front::Serve, &[("strategy", "\"greedy\""), ("pfus", "4")]);
        assert_eq!(served.unwrap().cell.machine, MachineSpec::with_pfus(4, 10));
        let e = text(Front::Run, &[("greedy", "x"), ("threshold", "0.5")])
            .err()
            .unwrap();
        assert_eq!(e.key, "--greedy");
        let flag = [
            ("greedy", cli_value(None)),
            ("strategy", cli_value(Some("knapsack"))),
        ];
        let e = parse(Front::Select, flag).err().unwrap();
        assert_eq!(
            e.message,
            "select: --greedy is --strategy greedy; give one of them"
        );
    }

    /// Greedy on a machine without PFUs reached the simulator, which
    /// panicked at the first extended instruction.
    #[test]
    fn a_strategy_needs_a_machine_with_pfus() {
        for (pairs, key, strategy) in [
            (
                &[("strategy", "\"greedy\""), ("pfus", "0")][..],
                "pfus",
                "greedy",
            ),
            (
                &[("strategy", "\"knapsack\""), ("machine.pfus", "0")],
                "machine.pfus",
                "knapsack",
            ),
            (&[("pfus", "0")], "pfus", "selective"),
        ] {
            let e = json(Front::Serve, pairs).err().unwrap();
            let says = format!("`{key}` must be at least 1 for the {strategy} strategy");
            assert_eq!(e.message, says);
        }
        let e = text(Front::Bench, &[("pfus", "0")]).err().unwrap();
        assert_eq!(
            e.message,
            "bench: --pfus must be at least 1 for the selective strategy"
        );
        // `select` runs no machine: selecting for no PFUs selects nothing.
        assert!(text(Front::Select, &[("pfus", "0")]).is_ok());
    }

    #[test]
    fn unknown_keys_are_refused_by_name() {
        for key in ["pfu", "reload_weight", "machine.bogus", "greedy"] {
            let e = json(Front::Serve, &[(key, "1")]).err().unwrap();
            assert_eq!(e.message, format!("`{key}` is not a known parameter"));
        }
    }

    #[test]
    fn a_zero_compression_ratio_is_off() {
        let plain = text(Front::Run, &[("pfus", "2")]).unwrap().cell;
        for zero in ["0", "-0", "0.0"] {
            let cell = text(Front::Run, &[("pfus", "2"), ("conf-compress", zero)]);
            assert_eq!(cell.unwrap().cell, plain, "{zero}");
        }
        for bad in ["-1", "nan", "inf", "x"] {
            let e = text(Front::Run, &[("pfus", "2"), ("conf-compress", bad)]).err();
            assert_eq!(
                e.map(|e| e.key).as_deref(),
                Some("--conf-compress"),
                "{bad}"
            );
        }
    }
}
