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

use crate::governor::parse_variant;
use crate::stream::Stage;
use hipacc_core::supervisor::SupervisorConfig;
use hipacc_core::{FaultPlan, Target};
use hipacc_image::Image;
use hipacc_profile::json::{self, Value};
use hipacc_sim::Engine;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};

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

/// A pinned configuration rung, in the string form bundles store
/// (variant via [`crate::governor::variant_label`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PinSpec {
    /// Ladder label of the rung.
    pub rung: String,
    /// Memory variant label (`auto`, `global`, `scratchpad`, …).
    pub variant: String,
    /// Forced launch configuration, if the rung carries one.
    pub force_config: Option<(u32, u32)>,
}

/// One successfully completed stage the frame passed *before* failing —
/// replay re-runs these to reconstruct the failing stage's input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TrailEntry {
    /// Stage name.
    pub stage: String,
    /// Breaker pin in force when the stage ran (`None` = healthy).
    pub pinned: Option<PinSpec>,
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
    /// Engine label every launch ran on.
    pub engine: String,
    /// Optimization level of the failing stage's operator.
    pub opt_level: u8,
    /// Configuration rung the failure surfaced from.
    pub rung: String,
    /// Launch attempts the supervisor made before giving up.
    pub attempt: u32,
    /// Breaker pin in force at the failing stage (`None` = healthy).
    pub pinned: Option<PinSpec>,
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

fn pin_json(p: &Option<PinSpec>) -> String {
    match p {
        None => "null".into(),
        Some(p) => {
            let force = match p.force_config {
                Some((x, y)) => format!("[{x},{y}]"),
                None => "null".into(),
            };
            format!(
                "{{\"rung\":\"{}\",\"variant\":\"{}\",\"force_config\":{}}}",
                json::escape(&p.rung),
                json::escape(&p.variant),
                force
            )
        }
    }
}

fn opt_u64(v: Option<u64>) -> String {
    match v {
        Some(n) => n.to_string(),
        None => "null".into(),
    }
}

impl ReplayBundle {
    /// Serialize for `reproduce --replay` and the stream report. The
    /// fault seed is stored as a **string** so 64-bit seeds survive the
    /// parser's f64 number representation.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let _ = write!(out, "\"stream\":\"{}\"", json::escape(&self.stream));
        let _ = write!(out, ",\"seq\":{}", self.seq);
        let _ = write!(out, ",\"stage\":\"{}\"", json::escape(&self.stage));
        let _ = write!(out, ",\"stage_index\":{}", self.stage_index);
        let _ = write!(out, ",\"engine\":\"{}\"", json::escape(&self.engine));
        let _ = write!(out, ",\"opt_level\":{}", self.opt_level);
        let _ = write!(out, ",\"rung\":\"{}\"", json::escape(&self.rung));
        let _ = write!(out, ",\"attempt\":{}", self.attempt);
        let _ = write!(out, ",\"pinned\":{}", pin_json(&self.pinned));
        let _ = write!(out, ",\"deadline_us\":{}", opt_u64(self.deadline_us));
        let _ = write!(
            out,
            ",\"frame_budget_us\":{}",
            opt_u64(self.frame_budget_us)
        );
        let _ = write!(out, ",\"spent_before_us\":{}", self.spent_before_us);
        let _ = write!(
            out,
            ",\"stream_check\":{}",
            match self.stream_check {
                Some((p, b)) => format!("[{p},{b}]"),
                None => "null".into(),
            }
        );
        let f = &self.fault;
        let _ = write!(
            out,
            ",\"fault\":{{\"seed\":\"{}\",\"global_flip_rate\":{},\"shared_flip_rate\":{},\
             \"flip_bits\":{},\"const_flips\":{},\"drop_rate\":{},\"poison_boundary_rate\":{},\
             \"stall_rate\":{},\"stall_us\":{},\"hang_rate\":{},\"panic_rate\":{},\
             \"base_block_us\":{},\"deadline_us\":{},\"faulty_attempts\":{},\"target_block\":{}}}",
            f.seed,
            f.global_flip_rate,
            f.shared_flip_rate,
            f.flip_bits,
            f.const_flips,
            f.drop_rate,
            f.poison_boundary_rate,
            f.stall_rate,
            f.stall_us,
            f.hang_rate,
            f.panic_rate,
            f.base_block_us,
            opt_u64(f.deadline_us),
            f.faulty_attempts,
            match f.target_block {
                Some((x, y)) => format!("[{x},{y}]"),
                None => "null".into(),
            }
        );
        let _ = write!(
            out,
            ",\"supervisor\":{{\"max_attempts\":{},\"backoff_base_us\":{},\"fallback\":{}}}",
            self.max_attempts, self.backoff_base_us, self.fallback
        );
        let _ = write!(out, ",\"workers\":{}", self.workers);
        let _ = write!(out, ",\"width\":{},\"height\":{}", self.width, self.height);
        let trail: Vec<String> = self
            .trail
            .iter()
            .map(|t| {
                format!(
                    "{{\"stage\":\"{}\",\"pinned\":{},\"deadline_us\":{}}}",
                    json::escape(&t.stage),
                    pin_json(&t.pinned),
                    opt_u64(t.deadline_us)
                )
            })
            .collect();
        let _ = write!(out, ",\"trail\":[{}]", trail.join(","));
        let _ = write!(
            out,
            ",\"expected_code\":\"{}\"",
            json::escape(&self.expected_code)
        );
        out.push('}');
        out
    }

    /// Parse a bundle back from [`Self::to_json`] output.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let doc = json::parse(text).map_err(|e| format!("replay bundle: {e:?}"))?;
        Self::from_value(&doc)
    }

    /// Parse a bundle from an already-parsed JSON value — e.g. one
    /// element of a stream report's `replay` array.
    pub fn from_value(doc: &Value) -> Result<Self, String> {
        let obj = doc.as_object().ok_or("replay bundle: not an object")?;
        let num = |key: &str| -> Result<f64, String> {
            obj.get(key)
                .and_then(Value::as_number)
                .ok_or_else(|| format!("replay bundle: missing number `{key}`"))
        };
        let st = |key: &str| -> Result<String, String> {
            obj.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("replay bundle: missing string `{key}`"))
        };
        let opt_num =
            |v: Option<&Value>| -> Option<u64> { v.and_then(Value::as_number).map(|n| n as u64) };
        let pair = |v: Option<&Value>| -> Option<(u32, u32)> {
            let arr = v?.as_array()?;
            Some((
                arr.first()?.as_number()? as u32,
                arr.get(1)?.as_number()? as u32,
            ))
        };
        let parse_pin = |v: Option<&Value>| -> Result<Option<PinSpec>, String> {
            let Some(p) = v.and_then(Value::as_object) else {
                return Ok(None);
            };
            Ok(Some(PinSpec {
                rung: p
                    .get("rung")
                    .and_then(Value::as_str)
                    .ok_or("replay bundle: pin missing `rung`")?
                    .to_string(),
                variant: p
                    .get("variant")
                    .and_then(Value::as_str)
                    .ok_or("replay bundle: pin missing `variant`")?
                    .to_string(),
                force_config: pair(p.get("force_config")),
            }))
        };

        let fault_obj = obj
            .get("fault")
            .and_then(Value::as_object)
            .ok_or("replay bundle: missing `fault`")?;
        let fnum = |key: &str| -> Result<f64, String> {
            fault_obj
                .get(key)
                .and_then(Value::as_number)
                .ok_or_else(|| format!("replay bundle: fault missing `{key}`"))
        };
        let fault = FaultPlan {
            seed: fault_obj
                .get("seed")
                .and_then(Value::as_str)
                .ok_or("replay bundle: fault missing `seed`")?
                .parse::<u64>()
                .map_err(|e| format!("replay bundle: bad fault seed: {e}"))?,
            global_flip_rate: fnum("global_flip_rate")? as f32,
            shared_flip_rate: fnum("shared_flip_rate")? as f32,
            flip_bits: fnum("flip_bits")? as u32,
            const_flips: fnum("const_flips")? as u32,
            drop_rate: fnum("drop_rate")? as f32,
            poison_boundary_rate: fnum("poison_boundary_rate")? as f32,
            stall_rate: fnum("stall_rate")? as f32,
            stall_us: fnum("stall_us")? as u64,
            hang_rate: fnum("hang_rate")? as f32,
            panic_rate: fnum("panic_rate")? as f32,
            base_block_us: fnum("base_block_us")? as u64,
            deadline_us: opt_num(fault_obj.get("deadline_us")),
            faulty_attempts: fnum("faulty_attempts")? as u32,
            target_block: pair(fault_obj.get("target_block")),
        };
        let sup = obj
            .get("supervisor")
            .and_then(Value::as_object)
            .ok_or("replay bundle: missing `supervisor`")?;
        let trail = obj
            .get("trail")
            .and_then(Value::as_array)
            .ok_or("replay bundle: missing `trail`")?
            .iter()
            .map(|v| {
                let t = v.as_object().ok_or("replay bundle: trail entry")?;
                Ok(TrailEntry {
                    stage: t
                        .get("stage")
                        .and_then(Value::as_str)
                        .ok_or("replay bundle: trail missing `stage`")?
                        .to_string(),
                    pinned: parse_pin(t.get("pinned"))?,
                    deadline_us: opt_num(t.get("deadline_us")),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;

        Ok(Self {
            stream: st("stream")?,
            seq: num("seq")? as u64,
            stage: st("stage")?,
            stage_index: num("stage_index")? as usize,
            engine: st("engine")?,
            opt_level: num("opt_level")? as u8,
            rung: st("rung")?,
            attempt: num("attempt")? as u32,
            pinned: parse_pin(obj.get("pinned"))?,
            deadline_us: opt_num(obj.get("deadline_us")),
            frame_budget_us: opt_num(obj.get("frame_budget_us")),
            spent_before_us: num("spent_before_us")? as u64,
            stream_check: obj
                .get("stream_check")
                .and_then(Value::as_array)
                .and_then(|arr| {
                    Some((
                        arr.first()?.as_number()? as u64,
                        arr.get(1)?.as_number()? as u64,
                    ))
                }),
            fault,
            max_attempts: sup
                .get("max_attempts")
                .and_then(Value::as_number)
                .ok_or("replay bundle: supervisor missing `max_attempts`")?
                as u32,
            backoff_base_us: sup
                .get("backoff_base_us")
                .and_then(Value::as_number)
                .ok_or("replay bundle: supervisor missing `backoff_base_us`")?
                as u64,
            fallback: matches!(sup.get("fallback"), Some(Value::Bool(true))),
            workers: num("workers")? as usize,
            width: num("width")? as u32,
            height: num("height")? as u32,
            trail,
            expected_code: st("expected_code")?,
        })
    }
}

fn parse_engine(label: &str) -> Result<Engine, String> {
    Engine::from_label(label).ok_or_else(|| {
        format!("replay: unknown engine `{label}` (a bundle replays on `bytecode` or `simd`)")
    })
}

/// Apply a recorded pin and deadline to a stage's operator and
/// supervisor config, exactly as the stream did.
fn apply_pin(
    stage: &Stage,
    pinned: &Option<PinSpec>,
    deadline_us: Option<u64>,
    engine: Engine,
    base_cfg: &SupervisorConfig,
    fault: &FaultPlan,
    pool: &std::sync::Arc<hipacc_sim::WorkerPool>,
) -> Result<(hipacc_core::Operator, SupervisorConfig, FaultPlan), String> {
    let mut op = stage.op.clone();
    op.options.engine = Some(engine);
    op.options.cache = None;
    op.options.pool = Some(std::sync::Arc::clone(pool));
    let mut cfg = base_cfg.clone();
    if let Some(pin) = pinned {
        op.options.variant = parse_variant(&pin.variant)
            .ok_or_else(|| format!("replay: unknown variant `{}`", pin.variant))?;
        op.options.force_config = pin.force_config;
        cfg.max_attempts = 1;
        cfg.fallback = false;
    }
    let mut plan = fault.clone();
    plan.deadline_us = deadline_us;
    Ok((op, cfg, plan))
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
    let engine = parse_engine(&bundle.engine)?;

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
    let base_cfg = SupervisorConfig {
        max_attempts: bundle.max_attempts,
        backoff_base_us: bundle.backoff_base_us,
        fallback: bundle.fallback,
    };
    // Same pool size as the original run: the virtual clock (a max over
    // per-worker sums) must agree bit for bit.
    let pool = std::sync::Arc::new(hipacc_sim::WorkerPool::new(bundle.workers.max(1)));

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
        let (op, cfg, plan) = apply_pin(
            stage,
            &entry.pinned,
            entry.deadline_us,
            engine,
            &base_cfg,
            &bundle.fault,
            &pool,
        )?;
        let sup = op
            .execute_supervised(
                &[(stage.input.as_str(), &image)],
                target,
                engine,
                &plan,
                &cfg,
            )
            .map_err(|e| format!("replay: trail stage `{}` diverged: {e}", stage.name))?;
        image = sup.execution.output;
    }

    // The failing launch itself, under the same panic isolation the
    // stream applies.
    let stage = &stages[bundle.stage_index];
    let (op, cfg, plan) = apply_pin(
        stage,
        &bundle.pinned,
        bundle.deadline_us,
        engine,
        &base_cfg,
        &bundle.fault,
        &pool,
    )?;
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        op.execute_supervised(
            &[(stage.input.as_str(), &image)],
            target,
            engine,
            &plan,
            &cfg,
        )
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
mod tests {
    use super::*;

    fn bundle() -> ReplayBundle {
        ReplayBundle {
            stream: "angio".into(),
            seq: 3,
            stage: "sobel".into(),
            stage_index: 1,
            engine: "bytecode".into(),
            opt_level: 2,
            rung: "tile 64x1".into(),
            attempt: 3,
            pinned: Some(PinSpec {
                rung: "scratchpad->global".into(),
                variant: "global".into(),
                force_config: Some((64, 1)),
            }),
            deadline_us: Some(5_000),
            frame_budget_us: Some(20_000),
            spent_before_us: 1_234,
            stream_check: None,
            fault: FaultPlan {
                seed: u64::MAX - 7,
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

    #[test]
    fn bundle_round_trips_through_json_bit_for_bit() {
        let b = bundle();
        let parsed = ReplayBundle::from_json(&b.to_json()).expect("parse");
        assert_eq!(parsed, b, "round trip must preserve every field");
        // Including a 64-bit seed that does not fit an f64 mantissa.
        assert_eq!(parsed.fault.seed, u64::MAX - 7);
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
        // Nor does a bundle recorded on an engine that no longer exists;
        // the error names the ones that do.
        b.stream_check = Some((10_001, 10_000));
        b.engine = "tree-walk".into();
        let err = replay(&b, &[], &target).unwrap_err();
        assert!(
            err.contains("`tree-walk`") && err.contains("`bytecode`") && err.contains("`simd`"),
            "{err}"
        );
    }
}
