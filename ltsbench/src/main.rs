//! `ltsbench` — end-to-end and per-layer benchmark of the wave-lts crates.
//!
//! ```text
//! ltsbench --workload trench-serial|trench-r2 \
//!          --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs operations (set-up + stepping + output check of one simulation)
//! of the workload for `S` seconds and prints every metric by name with its
//! unit; the last line of standard output is the result as one JSON object.
//! `--trace 0` reports the end-to-end metrics of an untraced run, `--trace 1`
//! the per-layer metrics of a traced run. See `README.md` beside this file.

mod catalog;
mod host;
mod stats;
mod traced;
mod workload;

use lts_obs::Json;
use stats::{median, quantile, run_step_time};
use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use workload::{Inputs, Op, Workload};

/// Checksums of the default seed and the host they and the noise profile
/// in `README.md` were measured on.
const REFERENCE: &str = include_str!("../reference.json");
/// Operations a run takes at least, however short `--seconds` is.
const MIN_OPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut m: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(k) = it.next() {
        let key = k
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {k:?}"))?;
        let v = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        m.insert(key, v);
    }
    let get = |k: &str| {
        m.get(k)
            .copied()
            .ok_or_else(|| format!("--{k} is required"))
    };
    let workload = get("workload")?;
    let args = Args {
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload {workload:?}"))?,
        seed: get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match get("trace")? {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace must be 0 or 1, not {t:?}")),
        },
    };
    if let Some(k) = m
        .keys()
        .find(|k| !["workload", "seed", "seconds", "trace"].contains(k))
    {
        return Err(format!("unknown option --{k}"));
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Run `f`, turning a panic into an `Err`.
fn guarded(f: impl FnOnce() -> Result<Op, String>) -> Result<Op, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|p| {
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        Err(format!("panicked: {msg}"))
    })
}

/// Attempted operations, the ones that failed (each counted once, however
/// many checks it broke), and what went wrong.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: BTreeSet<usize>,
    problems: Vec<String>,
}

impl Tally {
    /// Run operation `i`; an `Err` or a panic counts as its failure and the
    /// run goes on.
    fn attempt(
        &mut self,
        i: usize,
        label: &str,
        f: impl FnOnce() -> Result<Op, String>,
    ) -> Option<Op> {
        self.attempted += 1;
        match guarded(f) {
            Ok(op) => Some(op),
            Err(e) => {
                self.fail([i], format!("{label}: {e}"));
                None
            }
        }
    }

    /// Mark operations `ops` failed by one broken check.
    fn fail(&mut self, ops: impl IntoIterator<Item = usize>, problem: String) {
        self.failed.extend(ops);
        eprintln!("FAILED {problem}");
        self.problems.push(problem);
    }

    fn failed(&self) -> u64 {
        self.failed.len() as u64
    }
}

struct Reference {
    default_seed: u64,
    host: Option<String>,
    checksums: BTreeMap<String, u64>,
}

fn reference() -> Reference {
    let doc = Json::parse(REFERENCE).expect("reference.json is valid JSON");
    let checksums = match doc.get("checksums") {
        Some(Json::Obj(kv)) => kv
            .iter()
            .filter_map(|(k, v)| {
                let hex = v.as_str()?.strip_prefix("0x")?;
                Some((k.clone(), u64::from_str_radix(hex, 16).ok()?))
            })
            .collect(),
        _ => BTreeMap::new(),
    };
    Reference {
        default_seed: doc.get("default_seed").and_then(Json::as_u64).unwrap_or(1),
        host: doc.get("host").and_then(Json::as_str).map(str::to_string),
        checksums,
    }
}

/// The result of one run: the JSON's `correct`/`attempted`/`failed` and
/// the metric values by catalog name, plus notes for the human-readable
/// lines.
struct Outcome {
    tally: Tally,
    values: BTreeMap<String, f64>,
    notes: BTreeMap<&'static str, String>,
}

fn run(args: &Args, reference: &Reference) -> Outcome {
    let w = args.workload;
    let inputs = Inputs::from_seed(args.seed);
    let mut tally = Tally::default();
    // (index, traced, measurement) of every operation that succeeded
    let mut ops: Vec<(usize, bool, Op)> = Vec::new();
    // trench-r2's first final field, kept for the comparison with the
    // serial stepper
    let mut first_fields = None;
    let start = Instant::now();
    let mut i = 0;
    while i < MIN_OPS || start.elapsed().as_secs_f64() < args.seconds {
        // the traced run alternates traced and untraced operations, so
        // both see the same stretch of host noise
        let traced = args.trace && i % 2 == 0;
        let check_energy = i == 0 && w != Workload::TrenchR2;
        let label = format!(
            "{} op {i}{}",
            w.name(),
            if traced { " (traced)" } else { "" }
        );
        if let Some(mut op) = tally.attempt(i, &label, || {
            workload::run_op(w, &inputs, traced, check_energy)
        }) {
            eprintln!(
                "{label}: setup {:.3} s, {} steps, median {:.2} ms/step, checksum {:#018x}",
                op.setup_s,
                op.step_ms.len(),
                median(&op.step_ms).unwrap_or(f64::NAN),
                op.checksum
            );
            let fields = std::mem::take(&mut op.fields);
            // every operation of a run has the same inputs, so the same bits
            match ops.first() {
                Some((_, _, first)) if first.checksum != op.checksum => tally.fail(
                    [i],
                    format!(
                        "{label}: final field {:#018x} differs from the first operation's {:#018x}",
                        op.checksum, first.checksum
                    ),
                ),
                Some(_) => ops.push((i, traced, op)),
                None => {
                    first_fields = (w == Workload::TrenchR2).then_some(fields);
                    ops.push((i, traced, op));
                }
            }
        }
        i += 1;
    }
    let peak_rss_mb = host::peak_rss_mb();

    let mut notes = BTreeMap::new();
    let mut values = BTreeMap::new();
    let checksum = ops.first().map(|(_, _, op)| op.checksum);
    // the checks below hold for the common final field, so a broken one
    // fails every operation that produced it
    let all: Vec<usize> = ops.iter().map(|(i, _, _)| *i).collect();
    if let Some(c) = checksum {
        notes.insert("checksum", format!("final field checksum {c:#018x}"));
    }
    let note_energy = |notes: &mut BTreeMap<_, _>, op: &Op| {
        if let Some(d) = op.energy_drift {
            notes.insert(
                "energy",
                format!(
                    "energy changed by {:.3}% (fence {}%)",
                    100.0 * d,
                    100.0 * workload::ENERGY_DRIFT_BOUND
                ),
            );
        }
    };
    if let Some((_, _, op)) = ops.first() {
        note_energy(&mut notes, op);
    }
    if let (Workload::TrenchR2, Some(dist)) = (w, &first_fields) {
        // the serial reference is a check of the operations, not one itself
        match guarded(|| workload::r2_reference(&inputs)) {
            Err(e) => tally.fail(all.iter().copied(), format!("trench-serial reference: {e}")),
            Ok(serial) => {
                note_energy(&mut notes, &serial);
                let (bits, rel) = workload::compare_with_serial(dist, &serial.fields);
                notes.insert(
                "serial",
                format!(
                    "vs trench-serial {:#018x}: {bits} entries differ in their bits, max relative difference {rel:.3e}",
                    serial.checksum
                ),
            );
                values.insert("runtime.serial_bit_mismatches".to_string(), bits as f64);
                values.insert("runtime.serial_max_rel_diff".to_string(), rel);
                let per_step = ops.first().map_or(0, |(_, _, op)| op.elem_ops_per_step);
                if per_step != serial.elem_ops_per_step {
                    tally.fail(
                    all.iter().copied(),
                    format!(
                        "ranks performed {per_step} element products per step, the serial stepper {}",
                        serial.elem_ops_per_step
                    ),
                );
                }
                if rel.is_nan() || rel > workload::SERIAL_AGREEMENT {
                    tally.fail(
                        all.iter().copied(),
                        format!(
                            "trench-r2 field differs from trench-serial's by {rel:e} (bound {:e})",
                            workload::SERIAL_AGREEMENT
                        ),
                    );
                }
            }
        }
    }
    if let (Some(c), true) = (checksum, args.seed == reference.default_seed) {
        match reference.checksums.get(w.name()) {
            Some(&want) if want != c => tally.fail(
                all.iter().copied(),
                format!("final field {c:#018x} != committed default-seed checksum {want:#018x}"),
            ),
            Some(_) => {}
            None => eprintln!("note: reference.json has no checksum for {}", w.name()),
        }
    }

    let untraced: Vec<f64> = ops
        .iter()
        .filter(|(_, t, _)| !t)
        .flat_map(|(_, _, op)| op.step_ms.iter().copied())
        .collect();
    let mut put = |k: &str, v: Option<f64>| {
        if let Some(v) = v.filter(|v| v.is_finite()) {
            values.insert(k.to_string(), v);
        }
    };
    let failed_frac = tally.failed() as f64 / tally.attempted as f64;
    let step_time = |traced: bool| {
        run_step_time(
            ops.iter()
                .filter(|(_, t, _)| *t == traced)
                .map(|(_, _, op)| op.step_ms.as_slice()),
        )
    };
    if args.trace {
        // per-layer values: median over the traced operations (all of them
        // on trench-r2, whose split comes from the runtime's own records)
        let layered: Vec<&Op> = ops
            .iter()
            .filter(|(_, t, _)| *t || w == Workload::TrenchR2)
            .map(|(_, _, op)| op)
            .collect();
        let mut keys: Vec<&String> = layered.iter().flat_map(|op| op.layers.keys()).collect();
        keys.sort();
        keys.dedup();
        for k in keys {
            let xs: Vec<f64> = layered
                .iter()
                .filter_map(|op| op.layers.get(k).copied())
                .collect();
            put(k, median(&xs));
        }
        put("stepping.step_ms_p50", quantile(&untraced, 0.5));
        put("stepping.step_ms_p90", quantile(&untraced, 0.9));
        put("stepping.samples", Some(untraced.len() as f64));
        if let (Some(a), Some(b)) = (step_time(true), step_time(false)) {
            put("obs.trace_overhead_frac", Some(a / b - 1.0));
        }
        put("failed_frac", Some(failed_frac));
    } else {
        if let Some(step_ms) = step_time(false) {
            notes.insert(
                "step_ms_p10_q1",
                format!(
                    "lower quartile over {} operations of their lower deciles, {} step samples",
                    ops.len(),
                    untraced.len()
                ),
            );
            let per_step = ops.first().map(|(_, _, op)| op.elem_ops_per_step as f64);
            put("step_ms_p10_q1", Some(step_ms));
            put("elem_ops_per_s", per_step.map(|n| n / (step_ms * 1e-3)));
        }
        let setups: Vec<f64> = ops.iter().map(|(_, _, op)| op.setup_s).collect();
        notes.insert("setup_s", format!("median of {} set-ups", setups.len()));
        put("setup_s", median(&setups));
        put("peak_rss_mb", peak_rss_mb);
        put("ok_frac", Some(1.0 - failed_frac));
    }
    Outcome {
        tally,
        values,
        notes,
    }
}

/// The metrics of this mode, `(name, unit)`, in catalog order.
fn metrics_of(trace: bool) -> Vec<(String, String)> {
    if trace {
        catalog::per_layer()
    } else {
        catalog::end_to_end()
    }
}

/// The result line. A metric the run could not measure reads 0, and then
/// the result is not `correct` unless the metric is a per-layer one of a
/// layer or level the workload does not have.
fn render_result(outcome: &Outcome, trace: bool) -> String {
    let mut missing = false;
    let metrics = metrics_of(trace)
        .into_iter()
        .map(|(name, unit)| {
            let v = outcome.values.get(&name).copied();
            missing |= v.is_none() && !trace;
            let m = Json::Obj(vec![
                ("value".into(), Json::Num(v.unwrap_or(0.0))),
                ("unit".into(), Json::str(&unit)),
            ]);
            (name, m)
        })
        .collect();
    let t = &outcome.tally;
    Json::Obj(vec![
        (
            "correct".into(),
            Json::Bool(t.failed.is_empty() && !missing),
        ),
        ("attempted".into(), Json::UInt(t.attempted)),
        ("failed".into(), Json::UInt(t.failed())),
        ("metrics".into(), Json::Obj(metrics)),
    ])
    .render()
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("ltsbench: {e}");
        eprintln!(
            "usage: ltsbench --workload trench-serial|trench-r2 --seed N --seconds S --trace 0|1"
        );
        std::process::exit(2);
    });
    let reference = reference();
    let fp = host::fingerprint();
    println!("host: {fp}");
    match &reference.host {
        Some(r) if *r != fp => println!(
            "note: host differs from the reference host ({r}); timings compare only between equal fingerprints"
        ),
        _ => {}
    }
    let outcome = run(&args, &reference);
    println!(
        "{} seed {} ({} mode): {} attempted, {} failed",
        args.workload.name(),
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        outcome.tally.attempted,
        outcome.tally.failed()
    );
    for p in &outcome.tally.problems {
        println!("  failure: {p}");
    }
    for key in ["checksum", "energy", "serial"] {
        if let Some(n) = outcome.notes.get(key) {
            println!("  {n}");
        }
    }
    for (name, unit) in metrics_of(args.trace) {
        let v = outcome.values.get(&name);
        let note = outcome
            .notes
            .get(name.as_str())
            .map(|n| format!("  ({n})"))
            .unwrap_or_default();
        match v {
            Some(v) if *v != 0.0 && v.abs() < 1e-3 => {
                println!("  {name:<32} {v:>16.6e} {unit}{note}")
            }
            Some(v) => println!("  {name:<32} {v:>16.6} {unit}{note}"),
            None => println!("  {name:<32} {:>16} {unit}", "-"),
        }
    }
    println!("{}", render_result(&outcome, args.trace));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn arguments_are_checked() {
        let a = parse_args(&argv(
            "--workload trench-r2 --seed 5 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::TrenchR2, 5, 10.0, true)
        );
        for bad in [
            "--workload trench --seed 5 --seconds 10 --trace 1",
            "--workload trench-r2 --seed x --seconds 10 --trace 1",
            "--workload trench-r2 --seed 5 --seconds 10 --trace 2",
            "--workload trench-r2 --seed 5 --seconds 0 --trace 0",
            "--workload trench-r2 --seed 5 --seconds 10",
            "--workload trench-r2 --seed 5 --seconds 10 --trace 0 --extra 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn reference_parses() {
        let r = reference();
        assert!(r.host.is_some());
        for w in Workload::ALL {
            assert!(r.checksums.contains_key(w.name()), "{}", w.name());
        }
    }

    #[test]
    fn result_prints_every_metric_with_its_unit() {
        for trace in [false, true] {
            let values: BTreeMap<String, f64> = metrics_of(trace)
                .into_iter()
                .enumerate()
                .map(|(i, (n, _))| (n, 1.5 + i as f64))
                .collect();
            let outcome = Outcome {
                tally: Tally {
                    attempted: 4,
                    ..Tally::default()
                },
                values,
                notes: BTreeMap::new(),
            };
            let line = render_result(&outcome, trace);
            assert!(!line.contains('\n'));
            let doc = Json::parse(&line).unwrap();
            let keys: Vec<&str> = match &doc {
                Json::Obj(kv) => kv.iter().map(|(k, _)| k.as_str()).collect(),
                _ => panic!("not an object"),
            };
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
            let metrics = doc.get("metrics").unwrap();
            for (i, (name, unit)) in metrics_of(trace).into_iter().enumerate() {
                let m = metrics
                    .get(&name)
                    .unwrap_or_else(|| panic!("{name} missing"));
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit.as_str()));
                assert_eq!(m.get("value").and_then(Json::as_f64), Some(1.5 + i as f64));
            }
        }
    }

    #[test]
    fn an_operation_fails_at_most_once() {
        let mut t = Tally::default();
        for i in 0..3 {
            let ok = t.attempt(i, "op", || match i {
                1 => Err("broken".into()),
                _ => Ok(Op::default()),
            });
            assert_eq!(ok.is_some(), i != 1);
        }
        assert!(t.attempt(3, "op", || panic!("boom")).is_none());
        // three checks that fail every operation, and one more on op 0
        for _ in 0..3 {
            t.fail([0, 2], "common field".into());
        }
        t.fail([0], "again".into());
        assert_eq!((t.attempted, t.failed()), (4, 4));
        assert_eq!(t.problems.len(), 6);
    }

    #[test]
    fn an_unmeasured_end_to_end_metric_is_not_correct() {
        let outcome = Outcome {
            tally: Tally {
                attempted: 1,
                failed: BTreeSet::from([0]),
                problems: Vec::new(),
            },
            values: BTreeMap::new(),
            notes: BTreeMap::new(),
        };
        let doc = Json::parse(&render_result(&outcome, false)).unwrap();
        assert_eq!(doc.get("correct"), Some(&Json::Bool(false)));
    }
}
