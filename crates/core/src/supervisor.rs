//! The resilient launch supervisor.
//!
//! [`supervise`] wraps the plain compile-and-execute pipeline of
//! [`Operator::execute`] in a recovery loop that survives every fault
//! class the injection plane ([`hipacc_faults`]) can produce:
//!
//! * **hung or stalled workers** — every faulted launch runs under the
//!   plan's virtual deadline; a cancellation
//!   ([`SimError::DeadlineExceeded`]) is classified *transient* and
//!   retried with exponential backoff. Both the launch cost and the
//!   backoff live on a **virtual clock** (microseconds accumulated in
//!   the report), so tests never sleep;
//! * **dropped, bit-flipped, or poisoned block results** — the engines
//!   keep per-block checksums of computed vs. committed stores; blocks
//!   whose checksums diverge are **selectively re-executed** on clean
//!   memory ([`repair_blocks`]) and patched into the output, and the
//!   repair itself is validated against the original checksums;
//! * **corrupted constant banks** — the post-launch scrub compares the
//!   uploaded coefficients bit-for-bit; a dirty bank invalidates the
//!   whole launch, which is retried (with the plan's seed rotated by the
//!   attempt counter, so transient flips do not recur);
//! * **configurations the device cannot sustain** — resource-limit
//!   compile failures and exhausted retries walk the degradation ladder
//!   of [`hipacc_codegen::fallback`]: drop texture/scratchpad paths back
//!   to global memory, then shrink the tile, recompiling at each rung.
//!
//! Every decision is recorded as a [`RecoveryEvent`]; the final
//! [`RecoveryReport`] renders as text or as `"recovery"`-category trace
//! spans merged into the launch profile. With an inert plan
//! ([`FaultPlan::none`]) the supervised result is **bit-identical** to
//! [`Operator::execute`] on the same engine.
//!
//! [`SimError::DeadlineExceeded`]: hipacc_sim::SimError::DeadlineExceeded
//! [`repair_blocks`]: hipacc_sim::launch::repair_blocks

use crate::cache::{CacheReport, CacheTally, Prepared};
use crate::operator::{Execution, Operator, OperatorError};
use crate::profile::{LaunchFacts, LaunchProfile};
use crate::target::Target;
use hipacc_codegen::{fallback_chain, MemVariant};
use hipacc_faults::{FaultPlan, FaultSession};
use hipacc_image::Image;
use hipacc_profile::{now_us, Recorder, Span};
use hipacc_sim::inject::{combine_hash, store_hash};
use hipacc_sim::launch::{repair_blocks, run_on_image_instrumented};
use hipacc_sim::Engine;
use std::sync::Arc;

/// Retry and fallback policy for [`supervise`].
#[derive(Clone, Debug)]
pub struct SupervisorConfig {
    /// Launch attempts per configuration before degrading (≥ 1).
    pub max_attempts: u32,
    /// Base of the exponential virtual backoff charged after a transient
    /// failure: attempt `k` waits `backoff_base_us << k` virtual µs.
    pub backoff_base_us: u64,
    /// Walk the config-degradation ladder when retries are exhausted or
    /// compilation hits a resource limit. `false` = retry-only.
    pub fallback: bool,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            backoff_base_us: 100,
            fallback: true,
        }
    }
}

/// What the supervisor did in response to one attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveryAction {
    /// The attempt validated clean; its output is the result.
    Completed,
    /// Corrupted blocks were re-executed on clean memory and patched in;
    /// the repaired output is the result.
    Repaired,
    /// The attempt was discarded and relaunched (transient failure,
    /// constant-bank corruption, or a repair that did not validate).
    Retried,
    /// The configuration was abandoned for the next rung of the
    /// degradation ladder (recompile with cheaper options).
    Degraded,
    /// Recovery gave up; the error is surfaced to the caller.
    Surfaced,
}

impl std::fmt::Display for RecoveryAction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            RecoveryAction::Completed => "completed",
            RecoveryAction::Repaired => "repaired",
            RecoveryAction::Retried => "retried",
            RecoveryAction::Degraded => "degraded",
            RecoveryAction::Surfaced => "surfaced",
        })
    }
}

/// One structured entry of the supervisor's recovery log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecoveryEvent {
    /// Configuration rung the attempt ran under (`initial`,
    /// `scratchpad->global`, `tile 64x1`, …).
    pub step: String,
    /// Attempt index within the step (0-based).
    pub attempt: u32,
    /// What the supervisor did.
    pub action: RecoveryAction,
    /// Human-readable specifics (corrupted blocks, dirty banks, the
    /// failure diagnostic, …). Deterministic for a given plan.
    pub detail: String,
    /// Virtual time charged for the attempt (launch plus any backoff).
    pub virtual_us: u64,
}

impl std::fmt::Display for RecoveryEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{} attempt {}] {}: {} ({}us)",
            self.step, self.attempt, self.action, self.detail, self.virtual_us
        )
    }
}

/// Outcome counters for one configuration rung the supervisor visited:
/// how many events on that rung ended in each [`RecoveryAction`], plus
/// the compile options the rung ran under. This is the machine-readable
/// side of the event log — the stream resilience governor keys its
/// circuit breaker on the **final** rung (`RecoveryReport::final_rung`),
/// and `StreamReport` derives its action totals from these counters, so
/// both share one source of truth with the rendered text.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RungOutcome {
    /// Rung label (`initial`, `scratchpad->global`, `tile 64x1`, …).
    pub rung: String,
    /// Memory variant the rung compiled with.
    pub variant: MemVariant,
    /// Forced launch config of the rung (`None` = the database's pick).
    pub force_config: Option<(u32, u32)>,
    /// Attempts on this rung that validated clean.
    pub completed: u32,
    /// Attempts recovered by selective block re-execution.
    pub repaired: u32,
    /// Attempts discarded and relaunched.
    pub retried: u32,
    /// Times this rung was abandoned for the next one.
    pub degraded: u32,
    /// Failures surfaced to the caller from this rung.
    pub surfaced: u32,
}

impl RungOutcome {
    fn new(rung: &str, variant: MemVariant, force_config: Option<(u32, u32)>) -> Self {
        Self {
            rung: rung.to_string(),
            variant,
            force_config,
            completed: 0,
            repaired: 0,
            retried: 0,
            degraded: 0,
            surfaced: 0,
        }
    }

    fn bump(&mut self, action: RecoveryAction) {
        match action {
            RecoveryAction::Completed => self.completed += 1,
            RecoveryAction::Repaired => self.repaired += 1,
            RecoveryAction::Retried => self.retried += 1,
            RecoveryAction::Degraded => self.degraded += 1,
            RecoveryAction::Surfaced => self.surfaced += 1,
        }
    }

    /// The counter for `action`.
    pub fn count(&self, action: RecoveryAction) -> u32 {
        match action {
            RecoveryAction::Completed => self.completed,
            RecoveryAction::Repaired => self.repaired,
            RecoveryAction::Retried => self.retried,
            RecoveryAction::Degraded => self.degraded,
            RecoveryAction::Surfaced => self.surfaced,
        }
    }

    /// Whether this rung produced the validated result (clean or
    /// repaired).
    pub fn succeeded(&self) -> bool {
        self.completed + self.repaired > 0
    }
}

/// The full recovery log of one supervised execution.
#[derive(Clone, Debug, Default)]
pub struct RecoveryReport {
    /// Events in the order they happened.
    pub events: Vec<RecoveryEvent>,
    /// Per-rung outcome counters, in ladder order as visited. The last
    /// entry is the rung execution ended on (successfully or not).
    pub rungs: Vec<RungOutcome>,
    /// Total launches attempted (including the successful one).
    pub attempts: u32,
    /// Total virtual time: launches, backoffs, repairs.
    pub virtual_us: u64,
    /// The fault plan's stable summary string.
    pub plan: String,
}

impl RecoveryReport {
    /// Whether any recovery action (beyond a clean first launch) was
    /// needed.
    pub fn recovered(&self) -> bool {
        self.events
            .iter()
            .any(|e| e.action != RecoveryAction::Completed)
    }

    /// Total events across all rungs that ended in `action`.
    pub fn action_total(&self, action: RecoveryAction) -> u32 {
        self.rungs.iter().map(|r| r.count(action)).sum()
    }

    /// The rung execution ended on — the one a circuit breaker pins a
    /// stage to when it decides the ladder's verdict is stable.
    pub fn final_rung(&self) -> Option<&RungOutcome> {
        self.rungs.last()
    }

    /// Whether execution succeeded only after abandoning the requested
    /// configuration (the final rung is a degraded one).
    pub fn degraded_success(&self) -> bool {
        self.final_rung()
            .is_some_and(|r| r.succeeded() && r.rung != "initial")
    }

    /// The recovery log as `"recovery"`-category trace spans laid out
    /// sequentially on the virtual timeline starting at `base_us`.
    pub fn spans(&self, base_us: u64) -> Vec<Span> {
        let mut out = Vec::new();
        let mut cursor = base_us;
        for e in &self.events {
            let dur = e.virtual_us.max(1);
            out.push(
                Span::new(format!("{}: {}", e.action, e.step), "recovery", cursor, dur)
                    .arg("attempt", e.attempt.to_string())
                    .arg("detail", e.detail.clone())
                    .arg("virtual_us", e.virtual_us.to_string()),
            );
            cursor = cursor.saturating_add(dur);
        }
        out
    }

    /// Render the log as deterministic text, one event per line.
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "recovery report: {} attempt(s), {} virtual us, plan: {}\n",
            self.attempts, self.virtual_us, self.plan
        );
        for e in &self.events {
            out.push_str(&format!("  {e}\n"));
        }
        for r in &self.rungs {
            out.push_str(&format!(
                "  rung {}: completed={} repaired={} retried={} degraded={} surfaced={}\n",
                r.rung, r.completed, r.repaired, r.retried, r.degraded, r.surfaced
            ));
        }
        out
    }
}

/// A supervised execution that (eventually) produced a validated result.
#[derive(Clone, Debug)]
pub struct Supervised {
    /// The validated execution (output, stats, modelled time, artifact).
    pub execution: Execution,
    /// What it took to get there.
    pub recovery: RecoveryReport,
    /// What the kernel cache did for the successful rung (`None` when no
    /// cache is installed).
    pub cache: Option<CacheReport>,
    /// The successful attempt's raw facts; [`Self::profile`] joins them.
    facts: LaunchFacts,
}

impl Supervised {
    /// The launch profile of the successful attempt, with the fault plan
    /// recorded and the recovery spans merged in. Assembled on demand —
    /// a caller that only wants the output never pays for it.
    pub fn profile(&self) -> LaunchProfile {
        let mut profile = LaunchProfile::assemble(&self.facts, &self.execution, self.cache.clone());
        profile
            .spans
            .extend(self.recovery.spans(self.facts.launch_us.0));
        profile
    }
}

/// A supervised execution that exhausted every recovery option.
#[derive(Debug)]
pub struct SupervisedError {
    /// The final, unrecoverable failure.
    pub error: OperatorError,
    /// Everything the supervisor tried before giving up.
    pub report: RecoveryReport,
}

impl std::fmt::Display for SupervisedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "supervision failed after {} attempt(s): {}",
            self.report.attempts, self.error
        )
    }
}

impl std::error::Error for SupervisedError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// One rung of the configuration ladder the supervisor walks, with the
/// compile options it effectively runs under — recorded into the per-rung
/// outcome counters so a circuit breaker can re-create exactly this
/// configuration when it pins the stage.
#[derive(Clone, Debug)]
struct StepSpec {
    label: String,
    variant: MemVariant,
    force_config: Option<(u32, u32)>,
}

/// Append one event to the recovery log and bump the matching counter of
/// its rung's [`RungOutcome`] (created on first use; rung labels are
/// unique across the ladder, so the entries stay in visit order).
fn log(
    report: &mut RecoveryReport,
    rung: &StepSpec,
    attempt: u32,
    action: RecoveryAction,
    detail: String,
    virtual_us: u64,
) {
    match report.rungs.iter_mut().find(|r| r.rung == rung.label) {
        Some(r) => r.bump(action),
        None => {
            let mut r = RungOutcome::new(&rung.label, rung.variant, rung.force_config);
            r.bump(action);
            report.rungs.push(r);
        }
    }
    report.events.push(RecoveryEvent {
        step: rung.label.clone(),
        attempt,
        action,
        detail,
        virtual_us,
    });
}

/// Give up: log `error` as surfaced from `rung` and hand the report back.
#[allow(clippy::result_large_err)]
fn surface(
    mut report: RecoveryReport,
    rung: &StepSpec,
    attempt: u32,
    error: OperatorError,
) -> Result<Supervised, SupervisedError> {
    let detail = error.diagnostic().to_string();
    log(
        &mut report,
        rung,
        attempt,
        RecoveryAction::Surfaced,
        detail,
        0,
    );
    Err(SupervisedError { error, report })
}

fn block_list(blocks: &[(u32, u32)]) -> String {
    blocks
        .iter()
        .map(|(x, y)| format!("({x},{y})"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Execute `op` under the supervisor: inject `plan`, validate the
/// output, and retry / repair / degrade per `cfg` until a validated
/// result exists or every option is exhausted.
///
/// With [`FaultPlan::none`] the result is bit-identical to
/// [`Operator::execute_with`] on the same engine. The cache hit or miss
/// of the `initial` rung is also counted into `tally`, when one is given.
#[allow(clippy::result_large_err)] // the Err carries the full RecoveryReport by design
pub fn supervise(
    op: &Operator,
    inputs: &[(&str, &Image<f32>)],
    target: &Target,
    engine: Engine,
    plan: &FaultPlan,
    cfg: &SupervisorConfig,
    tally: Option<&CacheTally>,
) -> Result<Supervised, SupervisedError> {
    use RecoveryAction::{Completed, Degraded, Repaired, Retried};

    let mut report = RecoveryReport {
        plan: plan.summary(),
        ..RecoveryReport::default()
    };
    let initial = StepSpec {
        label: "initial".into(),
        variant: op.options.variant,
        force_config: op.options.force_config,
    };
    let Some((_, first)) = inputs.first() else {
        return surface(report, &initial, 0, OperatorError::NoInputs);
    };
    let (width, height) = (first.width(), first.height());

    // The degradation ladder below the requested configuration; a rung
    // without a tile of its own keeps the operator's forced config.
    let ladder = |config: Option<hipacc_hwmodel::LaunchConfig>| {
        fallback_chain(op.options.variant, config)
            .into_iter()
            .map(|s| StepSpec {
                label: s.label,
                variant: s.variant,
                force_config: s.force_config.or(op.options.force_config),
            })
    };
    let mut steps = vec![initial];
    let mut ladder_built = !cfg.fallback;
    // The fault session's attempt counter is global across rungs, so a
    // transient plan (faulty_attempts = 1) stays cured after a retry even
    // if the supervisor later degrades the configuration.
    let mut fault_attempt: u32 = 0;
    let mut step_idx = 0;

    while step_idx < steps.len() {
        let step = steps[step_idx].clone();
        // The `initial` rung is `op` as it is; only a degraded rung needs
        // an operator of its own.
        let degraded;
        let op_step = if step_idx == 0 {
            op
        } else {
            let mut clone = op.clone();
            clone.options.variant = step.variant;
            clone.options.force_config = step.force_config;
            degraded = clone;
            &degraded
        };

        let mut rec = Recorder::new();
        // Kernel-cache policy: only the pristine `initial` rung may be
        // served from (or populate) the cache. Degraded rungs compile with
        // a different fingerprint anyway (variant / force_config are part
        // of the key), but they bypass the cache entirely.
        let bypass = (step_idx != 0).then_some("degraded-config");
        let compile = op_step.compile_maybe_cached(target, width, height, &mut rec, bypass, tally);
        let (prepared, cached) = match compile {
            Ok(c) => c,
            Err(e) => {
                let resource = e.is_resource_limit();
                let err = OperatorError::Compile(e);
                if resource && cfg.fallback {
                    if !ladder_built {
                        // No tile hint from a failed compile: degrade
                        // the memory variant only.
                        steps.extend(ladder(None));
                        ladder_built = true;
                    }
                    if let Some(next) = steps.get(step_idx + 1) {
                        let detail = format!("{} -> trying {}", err.diagnostic(), next.label);
                        log(&mut report, &step, 0, Degraded, detail, 0);
                        step_idx += 1;
                        continue;
                    }
                }
                return surface(report, &step, 0, err);
            }
        };
        let compiled = prepared.compiled();
        if !ladder_built {
            steps.extend(ladder(Some(compiled.config)));
            ladder_built = true;
        }

        let spec = op.spec_for(compiled, inputs);
        // Every pass either returns, moves to the next attempt (only
        // while one is left) or breaks out to the next rung.
        let mut attempt = 0;
        loop {
            let session = FaultSession::new(plan.clone(), fault_attempt);
            report.attempts += 1;
            fault_attempt += 1;
            let retries_left = attempt + 1 < cfg.max_attempts;

            let launch = run_on_image_instrumented(
                &compiled.device_kernel,
                &spec,
                engine,
                true,
                Some(&session),
                prepared.tape(),
            );
            let mut run = match launch {
                Ok(run) => run,
                Err(e) => {
                    let err = OperatorError::Sim(e);
                    let transient = err.class().is_transient();
                    // Charge the deadline, not the saturated worker time:
                    // the watchdog cancels *at* the deadline, and a hung
                    // worker's own clock reads (near) u64::MAX.
                    let elapsed = match &err {
                        OperatorError::Sim(hipacc_sim::SimError::DeadlineExceeded {
                            elapsed_us,
                            deadline_us,
                            ..
                        }) => (*elapsed_us).min(*deadline_us),
                        _ => 0,
                    };
                    if transient && retries_left {
                        let backoff = cfg.backoff_base_us << attempt;
                        let charged = elapsed.saturating_add(backoff);
                        report.virtual_us = report.virtual_us.saturating_add(charged);
                        let detail = format!("{} -> backoff {}us", err.diagnostic(), backoff);
                        log(&mut report, &step, attempt, Retried, detail, charged);
                        attempt += 1;
                        continue;
                    }
                    if let (true, true, Some(next)) =
                        (transient, cfg.fallback, steps.get(step_idx + 1))
                    {
                        report.virtual_us = report.virtual_us.saturating_add(elapsed);
                        let detail = format!("retries exhausted -> trying {}", next.label);
                        log(&mut report, &step, attempt, Degraded, detail, elapsed);
                        break;
                    }
                    return surface(report, &step, attempt, err);
                }
            };

            // A disabled hook (inert plan, or a transient session past
            // its faulty attempts) reports no ledger: trivially clean.
            let faults = run.faults.take().unwrap_or_default();
            let launch_us = faults.virtual_us;
            report.virtual_us += launch_us;
            let corrupted = faults.corrupted_blocks();
            // A dirty constant bank invalidates every output of the
            // launch; corrupted blocks can be repaired selectively.
            let validated = if !run.corrupt_const_banks.is_empty() {
                Err(format!(
                    "constant banks corrupted: {:?}",
                    run.corrupt_const_banks
                ))
            } else if corrupted.is_empty() {
                Ok((Completed, "validated clean".to_string()))
            } else {
                try_repair(
                    &prepared,
                    &spec,
                    engine,
                    &corrupted,
                    &faults,
                    &mut run.output,
                )
                .map(|()| {
                    let detail = format!(
                        "re-executed {} corrupted block(s): {}",
                        corrupted.len(),
                        block_list(&corrupted)
                    );
                    (Repaired, detail)
                })
            };
            match validated {
                Ok((action, detail)) => {
                    log(&mut report, &step, attempt, action, detail, launch_us);
                    let facts = op.facts(
                        target,
                        engine,
                        run.exec.expect("the launch collected a profile"),
                        rec.into_spans(),
                        (now_us(), launch_us.max(1)),
                        plan.any_armed().then(|| plan.summary()),
                    );
                    return Ok(Supervised {
                        execution: Execution {
                            output: run.output,
                            stats: run.stats,
                            time: op.time_of(&prepared, target),
                            compiled: Arc::clone(compiled),
                        },
                        recovery: report,
                        cache: cached
                            .map(|(cache, outcome)| cache.launch_report(outcome, run.tape)),
                        facts,
                    });
                }
                Err(detail) if retries_left => {
                    log(&mut report, &step, attempt, Retried, detail, launch_us);
                    attempt += 1;
                }
                Err(detail) => {
                    return surface(report, &step, attempt, OperatorError::Unrecovered(detail));
                }
            }
        }
        step_idx += 1;
    }

    let ladder_end = StepSpec {
        label: "ladder".into(),
        variant: op.options.variant,
        force_config: None,
    };
    let err = OperatorError::Unrecovered("configuration ladder exhausted".into());
    surface(report, &ladder_end, 0, err)
}

/// Selectively re-execute `corrupted` blocks on clean memory, validate
/// the recomputed stores against the ledger's expected checksums, and
/// patch them into `output`. Returns a description of why the repair did
/// not validate.
fn try_repair(
    prepared: &Prepared,
    spec: &hipacc_sim::launch::LaunchSpec<'_>,
    engine: Engine,
    corrupted: &[(u32, u32)],
    faults: &hipacc_sim::FaultedRun,
    output: &mut Image<f32>,
) -> Result<(), String> {
    let kernel = &prepared.compiled().device_kernel;
    let (stores, _stats) = repair_blocks(kernel, spec, engine, corrupted, prepared.tape())
        .map_err(|e| format!("repair failed: {e}"))?;
    let expected: u64 = faults
        .ledger
        .iter()
        .filter(|l| corrupted.contains(&(l.bx, l.by)))
        .fold(0u64, |acc, l| acc.wrapping_add(l.expected));
    let recomputed = stores.iter().fold(0u64, |acc, s| {
        combine_hash(acc, store_hash(&s.buf, s.idx, s.value))
    });
    if recomputed != expected {
        return Err(format!(
            "repair of blocks {} did not validate against the ledger",
            block_list(corrupted)
        ));
    }
    let raw = output.raw_mut();
    for s in &stores {
        if s.buf == "OUT" && s.idx < raw.len() {
            raw[s.idx] = s.value;
        }
    }
    Ok(())
}

impl Operator {
    /// [`Self::execute_with`] wrapped in the launch supervisor: inject
    /// `plan`, validate per-block checksums and constant banks, retry /
    /// repair / degrade per `cfg`. See [`supervise`].
    #[allow(clippy::result_large_err)]
    pub fn execute_supervised(
        &self,
        inputs: &[(&str, &Image<f32>)],
        target: &Target,
        engine: Engine,
        plan: &FaultPlan,
        cfg: &SupervisorConfig,
    ) -> Result<Supervised, SupervisedError> {
        supervise(self, inputs, target, engine, plan, cfg, None)
    }

    /// [`Self::execute_supervised`], counting this launch's cache hit or
    /// miss into `tally` (see [`CacheTally`]).
    #[allow(clippy::result_large_err)]
    pub fn execute_supervised_tallied(
        &self,
        inputs: &[(&str, &Image<f32>)],
        target: &Target,
        engine: Engine,
        plan: &FaultPlan,
        cfg: &SupervisorConfig,
        tally: &CacheTally,
    ) -> Result<Supervised, SupervisedError> {
        supervise(self, inputs, target, engine, plan, cfg, Some(tally))
    }
}
