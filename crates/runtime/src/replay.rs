//! Deterministic failure replay.
//!
//! When a stream fails a frame, the interesting question is *why* — but
//! the failure happened deep inside a pipeline, behind queues, a shared
//! worker pool and possibly a pinned circuit breaker. A
//! [`ReplayBundle`] captures everything the failing launch depended on
//! — fault seed, attempt count, stage, frame sequence number,
//! configuration rung, engine, optimization level, the watchdog budgets
//! in force, and the **trail** of preceding stages with their pins —
//! so [`replay`] can re-execute the failing launch standalone, outside
//! any stream, and assert that it reproduces the *same* diagnostic
//! code. `reproduce --replay bundle.json` does exactly that from the
//! command line.
//!
//! Replay is bit-deterministic because every moving part already is:
//! frames come from the canonical [`drifting_frame`] generator, fault
//! decisions are pure functions of `(seed, attempt, block)`, and the
//! supervisor's ladder walk is a deterministic function of the plan.
//! The bundle round-trips through the bundled JSON parser
//! ([`hipacc_profile::json`]), so a bundle written by one process
//! replays identically in another.

use crate::governor::PinnedRung;
use crate::stream::Stage;
use hipacc_codegen::MemVariant;
use hipacc_core::supervisor::SupervisorConfig;
use hipacc_core::{FaultPlan, Target};
use hipacc_image::Image;
use hipacc_profile::json::{self, Value};
use hipacc_sim::Engine;
use hipacc_sim::WorkerPool;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// The canonical frame generator of the streaming examples, tests and
/// replay: a deterministic vessel-like phantom plus a per-frame drift
/// so every `seq` yields a distinct but reproducible image.
///
/// A replay bundle stores only `(width, height, seq)`; this function is
/// the contract that turns them back into bit-identical pixels.
pub fn drifting_frame(width: u32, height: u32, seq: u64) -> Image<f32> {
    let mut img = Image::from_fn(width, height, |x, y| {
        let ridge = ((x * 7 + y * 13) % 31) as f32 * 0.05;
        let falloff = ((x as f32 - width as f32 / 2.0).abs() * 0.02).min(1.0);
        ridge + falloff
    });
    for (j, px) in img.raw_mut().iter_mut().enumerate() {
        *px += ((seq as usize * 7 + j) % 13) as f32 * 1e-3;
    }
    img
}

/// The most workers a bundle read from JSON may ask [`replay`] for.
pub const MAX_REPLAY_WORKERS: usize = 256;

/// The largest frame side a bundle read from JSON may ask for (4096² `f32`s are 64 MiB).
pub const MAX_REPLAY_SIDE: u32 = 4096;

/// One successfully completed stage the frame passed *before* failing —
/// replay re-runs these to reconstruct the failing stage's input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TrailEntry {
    /// Stage name.
    pub stage: String,
    /// Breaker pin in force when the stage ran (`None` = healthy).
    pub pinned: Option<PinnedRung>,
    /// Effective launch deadline the watchdog imposed (`None` = none).
    pub deadline_us: Option<u64>,
}

/// Everything needed to re-execute one failed frame×stage launch
/// standalone and reproduce its diagnostic code. See the
/// [module docs](self).
#[derive(Clone, Debug, PartialEq)]
pub struct ReplayBundle {
    /// Stream name the failure came from.
    pub stream: String,
    /// Frame sequence number (also the [`drifting_frame`] seed).
    pub seq: u64,
    /// Name of the failing stage.
    pub stage: String,
    /// Index of the failing stage in the chain.
    pub stage_index: usize,
    /// Engine every launch ran on.
    pub engine: Engine,
    /// Optimization level of the failing stage's operator.
    pub opt_level: u8,
    /// Configuration rung the failure surfaced from.
    pub rung: String,
    /// Launch attempts the supervisor made before giving up.
    pub attempt: u32,
    /// Breaker pin in force at the failing stage (`None` = healthy).
    pub pinned: Option<PinnedRung>,
    /// Effective launch deadline at the failing stage.
    pub deadline_us: Option<u64>,
    /// Per-frame virtual budget in force (`R0602` watchdog).
    pub frame_budget_us: Option<u64>,
    /// Virtual µs the frame had already spent before this stage.
    pub spent_before_us: u64,
    /// `(projected, budget)` of a whole-stream budget trip (`R0603`).
    pub stream_check: Option<(u64, u64)>,
    /// The frame's fault plan, verbatim.
    pub fault: FaultPlan,
    /// Supervisor policy the stage ran under (pre-pin).
    pub max_attempts: u32,
    /// Supervisor backoff base.
    pub backoff_base_us: u64,
    /// Whether the degradation ladder was enabled.
    pub fallback: bool,
    /// Worker-pool size of the original run. The virtual clock is a max
    /// over per-worker sums, so replay must use the same pool size to
    /// reproduce deadline and budget arithmetic exactly.
    pub workers: usize,
    /// Frame width.
    pub width: u32,
    /// Frame height.
    pub height: u32,
    /// Stages the frame completed before failing, in chain order.
    pub trail: Vec<TrailEntry>,
    /// The diagnostic code the original failure carried; [`replay`]
    /// must come back with exactly this code.
    pub expected_code: String,
}

/// A memory variant's label in a bundle's JSON.
fn variant_label(v: MemVariant) -> &'static str {
    match v {
        MemVariant::Auto => "auto",
        MemVariant::Global => "global",
        MemVariant::Texture => "texture",
        MemVariant::TextureHwBoundary => "texture-hw",
        MemVariant::Scratchpad => "scratchpad",
    }
}

/// The memory variant whose [`variant_label`] is `label`, if any.
fn parse_variant(label: &str) -> Option<MemVariant> {
    use MemVariant::*;
    [Auto, Global, Texture, TextureHwBoundary, Scratchpad]
        .into_iter()
        .find(|&v| variant_label(v) == label)
}

/// A pin as JSON: the variant by its [`variant_label`].
fn pin_value(pin: &Option<PinnedRung>) -> Value {
    pin.as_ref()
        .map(|p| {
            Value::object([
                ("rung", (&p.rung).into()),
                ("variant", variant_label(p.variant).into()),
                ("force_config", p.force_config.into()),
            ])
        })
        .into()
}

impl ReplayBundle {
    /// The bundle as JSON. The fault seed is a **string**, so 64-bit
    /// seeds survive the parser's f64 numbers.
    pub fn to_value(&self) -> Value {
        let f = &self.fault;
        let trail = self.trail.iter().map(|t| {
            Value::object([
                ("stage", (&t.stage).into()),
                ("pinned", pin_value(&t.pinned)),
                ("deadline_us", t.deadline_us.into()),
            ])
        });
        Value::object([
            ("stream", (&self.stream).into()),
            ("seq", self.seq.into()),
            ("stage", (&self.stage).into()),
            ("stage_index", self.stage_index.into()),
            ("engine", self.engine.label().into()),
            ("opt_level", self.opt_level.into()),
            ("rung", (&self.rung).into()),
            ("attempt", self.attempt.into()),
            ("pinned", pin_value(&self.pinned)),
            ("deadline_us", self.deadline_us.into()),
            ("frame_budget_us", self.frame_budget_us.into()),
            ("spent_before_us", self.spent_before_us.into()),
            ("stream_check", self.stream_check.into()),
            (
                "fault",
                Value::object([
                    ("seed", f.seed.to_string().into()),
                    ("global_flip_rate", f.global_flip_rate.into()),
                    ("shared_flip_rate", f.shared_flip_rate.into()),
                    ("flip_bits", f.flip_bits.into()),
                    ("const_flips", f.const_flips.into()),
                    ("drop_rate", f.drop_rate.into()),
                    ("poison_boundary_rate", f.poison_boundary_rate.into()),
                    ("stall_rate", f.stall_rate.into()),
                    ("stall_us", f.stall_us.into()),
                    ("hang_rate", f.hang_rate.into()),
                    ("panic_rate", f.panic_rate.into()),
                    ("base_block_us", f.base_block_us.into()),
                    ("deadline_us", f.deadline_us.into()),
                    ("faulty_attempts", f.faulty_attempts.into()),
                    ("target_block", f.target_block.into()),
                ]),
            ),
            (
                "supervisor",
                Value::object([
                    ("max_attempts", self.max_attempts.into()),
                    ("backoff_base_us", self.backoff_base_us.into()),
                    ("fallback", self.fallback.into()),
                ]),
            ),
            ("workers", self.workers.into()),
            ("width", self.width.into()),
            ("height", self.height.into()),
            ("trail", trail.collect()),
            ("expected_code", (&self.expected_code).into()),
        ])
    }

    /// Serialize for `reproduce --replay`.
    pub fn to_json(&self) -> String {
        self.to_value().to_string()
    }

    /// Parse a bundle back from [`Self::to_json`] output.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let doc = json::parse(text).map_err(|e| format!("replay bundle: {e}"))?;
        Self::from_value(&doc)
    }

    /// Parse a bundle from an already-parsed JSON value — e.g. one
    /// element of a stream report's `replay` array. A bundle may come
    /// from a hand-edited file, so every field is checked: integers must be
    /// whole and fit their type, rates lie in `[0, 1]`, `workers` in
    /// `1..=`[`MAX_REPLAY_WORKERS`] and `width` / `height` in
    /// `1..=`[`MAX_REPLAY_SIDE`]. The error names the field.
    pub fn from_value(doc: &Value) -> Result<Self, String> {
        let top = Fields::of(doc, String::new())?;
        let (fault, sup) = (top.object("fault")?, top.object("supervisor")?);
        let Some(Value::Array(entries)) = top.map.get("trail") else {
            return Err("replay bundle: `trail` must be an array".into());
        };
        let trail = entries.iter().enumerate().map(|(i, v)| {
            let t = Fields::of(v, format!("trail[{i}]."))?;
            Ok(TrailEntry {
                stage: t.field("stage")?,
                pinned: t.field("pinned")?,
                deadline_us: t.field("deadline_us")?,
            })
        });
        let seed: String = fault.field("seed")?;
        Ok(Self {
            stream: top.field("stream")?,
            seq: top.field("seq")?,
            stage: top.field("stage")?,
            stage_index: top.field("stage_index")?,
            engine: top.field("engine")?,
            opt_level: top.field("opt_level")?,
            rung: top.field("rung")?,
            attempt: top.field("attempt")?,
            pinned: top.field("pinned")?,
            deadline_us: top.field("deadline_us")?,
            frame_budget_us: top.field("frame_budget_us")?,
            spent_before_us: top.field("spent_before_us")?,
            stream_check: top.field("stream_check")?,
            fault: FaultPlan {
                seed: seed
                    .parse()
                    .map_err(|e| format!("replay bundle: bad `fault.seed` `{seed}`: {e}"))?,
                global_flip_rate: fault.field("global_flip_rate")?,
                shared_flip_rate: fault.field("shared_flip_rate")?,
                flip_bits: fault.field("flip_bits")?,
                const_flips: fault.field("const_flips")?,
                drop_rate: fault.field("drop_rate")?,
                poison_boundary_rate: fault.field("poison_boundary_rate")?,
                stall_rate: fault.field("stall_rate")?,
                stall_us: fault.field("stall_us")?,
                hang_rate: fault.field("hang_rate")?,
                panic_rate: fault.field("panic_rate")?,
                base_block_us: fault.field("base_block_us")?,
                deadline_us: fault.field("deadline_us")?,
                faulty_attempts: fault.field("faulty_attempts")?,
                target_block: fault.field("target_block")?,
            },
            max_attempts: sup.field("max_attempts")?,
            backoff_base_us: sup.field("backoff_base_us")?,
            fallback: sup.field("fallback")?,
            workers: top.count("workers", MAX_REPLAY_WORKERS as u64)? as usize,
            width: top.count("width", MAX_REPLAY_SIDE.into())? as u32,
            height: top.count("height", MAX_REPLAY_SIDE.into())? as u32,
            trail: trail.collect::<Result<_, String>>()?,
            expected_code: top.field("expected_code")?,
        })
    }
}

/// One JSON object of a bundle being read, with the path its errors
/// name (`fault.`, `trail[0].`, …).
struct Fields<'a> {
    map: &'a BTreeMap<String, Value>,
    path: String,
}

impl<'a> Fields<'a> {
    fn of(v: &'a Value, path: String) -> Result<Self, String> {
        match v {
            Value::Object(map) => Ok(Self { map, path }),
            _ if path.is_empty() => Err(format!("replay bundle: not an object, got {v}")),
            _ => Err(format!(
                "replay bundle: `{}` must be an object, got {v}",
                path.trim_end_matches('.')
            )),
        }
    }

    fn object(&self, key: &str) -> Result<Fields<'a>, String> {
        let v = self.map.get(key).unwrap_or(&Value::Null);
        Fields::of(v, format!("{}{key}.", self.path))
    }

    /// The field as a `T`; a missing field reads as `null`.
    fn field<T: Field>(&self, key: &str) -> Result<T, String> {
        let v = self.map.get(key).unwrap_or(&Value::Null);
        T::read(v).ok_or_else(|| {
            format!(
                "replay bundle: `{}{key}` must be {}, got {v}",
                self.path,
                T::WHAT
            )
        })
    }

    /// A whole number in `1..=max`.
    fn count(&self, key: &str, max: u64) -> Result<u64, String> {
        match self.field(key)? {
            n if (1..=max).contains(&n) => Ok(n),
            n => Err(format!(
                "replay bundle: `{}{key}` must be in 1..={max}, got {n}",
                self.path
            )),
        }
    }
}

/// How a bundle field reads from JSON, and what it accepts (named in the
/// error). Every `f32` of a bundle is a rate, an `Option` is also `null`.
trait Field: Sized {
    const WHAT: &'static str;
    fn read(v: &Value) -> Option<Self>;
}

macro_rules! field {
    ($($t:ty, $what:literal, |$v:ident| $read:expr;)*) => {$(
        impl Field for $t {
            const WHAT: &'static str = $what;
            fn read($v: &Value) -> Option<Self> { $read }
        }
    )*};
}

field! {
    u8, "a whole number up to 255", |v| whole(v)?.try_into().ok();
    u32, "a whole number up to 2^32 - 1", |v| whole(v)?.try_into().ok();
    u64, "a whole number up to 2^53", |v| whole(v);
    usize, "a whole number up to 2^53", |v| whole(v)?.try_into().ok();
    f32, "a number in [0, 1]", |v| {
        v.as_number().filter(|n| (0.0..=1.0).contains(n)).map(|n| n as f32)
    };
    bool, "true or false", |v| if let Value::Bool(b) = v { Some(*b) } else { None };
    String, "a string", |v| v.as_str().map(Into::into);
    Engine, "`bytecode` or `simd`", |v| Engine::from_label(v.as_str()?);
    (u32, u32), "a pair of whole numbers up to 2^32 - 1", |v| pair(v);
    (u64, u64), "a pair of whole numbers up to 2^53", |v| pair(v);
    PinnedRung, "a pin {rung, variant, force_config}", |v| {
        let p = Fields::of(v, String::new()).ok()?;
        let variant = p.map.get("variant")?.as_str()?;
        Some(PinnedRung {
            rung: p.field("rung").ok()?,
            variant: parse_variant(variant)?,
            force_config: p.field("force_config").ok()?,
        })
    };
}

impl<T: Field> Field for Option<T> {
    const WHAT: &'static str = T::WHAT;
    fn read(v: &Value) -> Option<Self> {
        match v {
            Value::Null => Some(None),
            v => T::read(v).map(Some),
        }
    }
}

/// The integer a JSON number holds exactly: whole and in `0..=2^53`.
fn whole(v: &Value) -> Option<u64> {
    let n = v.as_number()?;
    (n.fract() == 0.0 && (0.0..=9_007_199_254_740_992.0).contains(&n)).then_some(n as u64)
}

fn pair<T: Field>(v: &Value) -> Option<(T, T)> {
    match v.as_array()? {
        [a, b] => Some((T::read(a)?, T::read(b)?)),
        _ => None,
    }
}

/// Re-execute the failing launch a [`ReplayBundle`] describes, outside
/// any stream, and return the diagnostic code it reproduces. The caller
/// asserts it equals [`ReplayBundle::expected_code`].
///
/// `stages` must be the same operator chain the stream ran (the
/// bundle's `stage_index` / `trail` refer into it). Returns `Err` if
/// the bundle is inconsistent with the chain or if the launch completes
/// clean (nothing reproduced).
#[allow(clippy::result_large_err)] // the supervised closure's Err carries the full report
pub fn replay(bundle: &ReplayBundle, stages: &[Stage], target: &Target) -> Result<String, String> {
    // A whole-stream budget trip is pure virtual-clock arithmetic: the
    // launch never ran, so replay re-checks the recorded numbers (no
    // chain required).
    if let Some((projected, budget)) = bundle.stream_check {
        return if projected > budget {
            Ok("R0603".into())
        } else {
            Err(format!(
                "replay: stream check {projected} <= budget {budget}; nothing to reproduce"
            ))
        };
    }
    // Likewise a frame whose budget was already exhausted pre-launch.
    if let Some(budget) = bundle.frame_budget_us {
        if bundle.spent_before_us >= budget {
            return Ok("R0602".into());
        }
    }

    if bundle.stage_index >= stages.len() {
        return Err(format!(
            "replay: bundle stage index {} out of range ({} stages)",
            bundle.stage_index,
            stages.len()
        ));
    }
    if stages[bundle.stage_index].name != bundle.stage {
        return Err(format!(
            "replay: stage {} is `{}`, bundle says `{}`",
            bundle.stage_index, stages[bundle.stage_index].name, bundle.stage
        ));
    }
    // Same pool size as the original run: the virtual clock (a max over
    // per-worker sums) must agree bit for bit.
    let pool = Arc::new(WorkerPool::new(bundle.workers.max(1)));
    // One launch as the stream ran it: the bundle's engine and policy,
    // with a recorded pin and deadline applied.
    let launch = |stage: &Stage, pin: &Option<PinnedRung>, deadline_us, image: &Image<f32>| {
        let mut op = stage.op.clone();
        op.options.engine = Some(bundle.engine);
        op.options.cache = None;
        op.options.pool = Some(Arc::clone(&pool));
        let mut cfg = SupervisorConfig {
            max_attempts: bundle.max_attempts,
            backoff_base_us: bundle.backoff_base_us,
            fallback: bundle.fallback,
        };
        if let Some(pin) = pin {
            op.options.variant = pin.variant;
            op.options.force_config = pin.force_config;
            cfg.max_attempts = 1;
            cfg.fallback = false;
        }
        let plan = FaultPlan {
            deadline_us,
            ..bundle.fault.clone()
        };
        let inputs = [(stage.input.as_str(), image)];
        op.execute_supervised(&inputs, target, bundle.engine, &plan, &cfg)
    };

    // Reconstruct the failing stage's input by re-running the trail.
    let mut image = drifting_frame(bundle.width, bundle.height, bundle.seq);
    if bundle.trail.len() != bundle.stage_index {
        return Err(format!(
            "replay: trail covers {} stage(s) but the failure is at index {}",
            bundle.trail.len(),
            bundle.stage_index
        ));
    }
    for (idx, entry) in bundle.trail.iter().enumerate() {
        let stage = &stages[idx];
        if stage.name != entry.stage {
            return Err(format!(
                "replay: trail stage {idx} is `{}`, chain says `{}`",
                entry.stage, stage.name
            ));
        }
        let sup = launch(stage, &entry.pinned, entry.deadline_us, &image)
            .map_err(|e| format!("replay: trail stage `{}` diverged: {e}", stage.name))?;
        image = sup.execution.output;
    }

    // The failing launch itself, under the same panic isolation the
    // stream applies.
    let stage = &stages[bundle.stage_index];
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        launch(stage, &bundle.pinned, bundle.deadline_us, &image)
    }));
    match outcome {
        Err(_) => Ok("R0601".into()),
        Ok(Err(e)) => Ok(e.error.diagnostic().code.to_string()),
        Ok(Ok(sup)) => {
            if let Some(budget) = bundle.frame_budget_us {
                if bundle.spent_before_us + sup.recovery.virtual_us > budget {
                    return Ok("R0602".into());
                }
            }
            Err("replay: launch completed clean; nothing reproduced".into())
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    pub(crate) fn bundle() -> ReplayBundle {
        ReplayBundle {
            stream: "angio".into(),
            seq: 3,
            stage: "sobel".into(),
            stage_index: 1,
            engine: Engine::Bytecode,
            opt_level: 2,
            rung: "tile 64x1".into(),
            attempt: 3,
            pinned: Some(PinnedRung {
                rung: "scratchpad->global".into(),
                variant: MemVariant::Global,
                force_config: Some((64, 1)),
            }),
            deadline_us: Some(5_000),
            frame_budget_us: Some(20_000),
            spent_before_us: 1_234,
            stream_check: None,
            fault: FaultPlan {
                seed: u64::MAX - 7,
                global_flip_rate: 0.1,
                hang_rate: 1.0,
                deadline_us: Some(5_000),
                faulty_attempts: u32::MAX,
                target_block: Some((0, 1)),
                ..FaultPlan::default()
            },
            max_attempts: 3,
            backoff_base_us: 100,
            fallback: true,
            workers: 3,
            width: 48,
            height: 48,
            trail: vec![TrailEntry {
                stage: "gauss".into(),
                pinned: None,
                deadline_us: Some(9_000),
            }],
            expected_code: "R0301".into(),
        }
    }

    /// [`bundle`] as JSON with the field at `path` (dot-separated, array
    /// indices as numbers) replaced by `new`, read back.
    fn read_edited(path: &str, new: Value) -> Result<ReplayBundle, String> {
        let mut doc = bundle().to_value();
        let mut at = &mut doc;
        for key in path.split('.') {
            at = match at {
                Value::Object(map) => map.get_mut(key).expect("fixture field"),
                Value::Array(items) => &mut items[key.parse::<usize>().unwrap()],
                _ => panic!("`{path}` walks into a scalar"),
            };
        }
        *at = new;
        ReplayBundle::from_json(&doc.to_string())
    }

    #[test]
    fn bundle_round_trips_through_json_bit_for_bit() {
        let b = bundle();
        let parsed = ReplayBundle::from_json(&b.to_json()).expect("parse");
        assert_eq!(parsed, b, "round trip must preserve every field");
        // Including a 64-bit seed that does not fit an f64 mantissa and a
        // rate with no exact binary fraction.
        assert_eq!(parsed.fault.seed, u64::MAX - 7);
        assert_eq!(parsed.fault.global_flip_rate.to_bits(), 0.1f32.to_bits());
    }

    #[test]
    fn a_non_finite_rate_writes_null_and_reads_back_as_a_named_error() {
        let mut b = bundle();
        b.fault.global_flip_rate = f32::NAN;
        let text = b.to_json();
        json::parse(&text).expect("a NaN rate still writes valid JSON");
        assert!(text.contains("\"global_flip_rate\":null"), "{text}");
        let err = ReplayBundle::from_json(&text).unwrap_err();
        assert!(err.contains("`fault.global_flip_rate`"), "{err}");
    }

    #[test]
    fn bundles_read_from_json_reject_out_of_range_fields() {
        let n = Value::Number;
        for (path, value, named) in [
            ("workers", n(0.0), "`workers`"),
            ("workers", n(2.5), "`workers`"),
            ("workers", n(-1.0), "`workers`"),
            ("workers", n(1e9), "`workers`"),
            ("workers", n(MAX_REPLAY_WORKERS as f64 + 1.0), "`workers`"),
            ("width", n(0.0), "`width`"),
            ("height", n(f64::from(MAX_REPLAY_SIDE) + 1.0), "`height`"),
            ("seq", n(-3.0), "`seq`"),
            ("seq", n(1.5), "`seq`"),
            ("seq", n(1e300), "`seq`"),
            ("opt_level", n(256.0), "`opt_level`"),
            ("attempt", "3".into(), "`attempt`"),
            ("fault.flip_bits", n(4_294_967_296.0), "`fault.flip_bits`"),
            ("fault.hang_rate", n(1.5), "`fault.hang_rate`"),
            ("fault.seed", "-1".into(), "`fault.seed`"),
            (
                "fault.target_block",
                Value::Array(vec![n(1.0)]),
                "`fault.target_block`",
            ),
            (
                "stream_check",
                Value::Array(vec![n(1.0), n(-2.0)]),
                "`stream_check`",
            ),
            ("supervisor.fallback", Value::Null, "`supervisor.fallback`"),
            ("trail.0.deadline_us", n(-1.0), "`trail[0].deadline_us`"),
            ("pinned.variant", "nope".into(), "`pinned`"),
            ("pinned.force_config", n(64.0), "`pinned`"),
            ("trail.0.pinned", n(1.0), "`trail[0].pinned`"),
            ("engine", "tree-walk".into(), "`engine`"),
        ] {
            let err = read_edited(path, value.clone()).unwrap_err();
            assert!(err.contains(named), "{path} = {value}: {err}");
        }
        // A recorded engine that no longer exists: the error names the
        // ones that do.
        let err = read_edited("engine", "tree-walk".into()).unwrap_err();
        assert!(
            err.contains("`bytecode`") && err.contains("`simd`"),
            "{err}"
        );
        // The caps themselves and 2^53 are in range.
        let most = read_edited("workers", n(MAX_REPLAY_WORKERS as f64)).expect("cap");
        assert_eq!(most.workers, MAX_REPLAY_WORKERS);
        let side = read_edited("width", n(f64::from(MAX_REPLAY_SIDE))).expect("cap");
        assert_eq!(side.width, MAX_REPLAY_SIDE);
        let seq = read_edited("seq", n(9_007_199_254_740_992.0)).expect("2^53");
        assert_eq!(seq.seq, 1 << 53);
        assert!(ReplayBundle::from_json("[]")
            .unwrap_err()
            .contains("not an object"));
        assert!(ReplayBundle::from_json("{").is_err());
    }

    #[test]
    fn variant_labels_round_trip() {
        use MemVariant::*;
        for v in [Auto, Global, Texture, TextureHwBoundary, Scratchpad] {
            assert_eq!(parse_variant(variant_label(v)), Some(v));
        }
        assert_eq!(parse_variant("nope"), None);
    }

    #[test]
    fn drifting_frames_differ_by_seq_but_are_reproducible() {
        let a = drifting_frame(32, 16, 0);
        let b = drifting_frame(32, 16, 1);
        assert_ne!(a.raw(), b.raw(), "distinct frames per seq");
        assert_eq!(
            drifting_frame(32, 16, 1).raw(),
            b.raw(),
            "same seq, same pixels"
        );
    }

    #[test]
    fn stream_check_bundles_replay_arithmetically() {
        let mut b = bundle();
        b.stream_check = Some((10_001, 10_000));
        b.expected_code = "R0603".into();
        // No chain needed: the budget trip never launched.
        let target = hipacc_core::Target::cuda(hipacc_hwmodel::device::tesla_c2050());
        assert_eq!(replay(&b, &[], &target).as_deref(), Ok("R0603"));
        // A bundle whose numbers do NOT trip the budget reproduces
        // nothing, and says so.
        b.stream_check = Some((9_999, 10_000));
        assert!(replay(&b, &[], &target).is_err());
    }
}
