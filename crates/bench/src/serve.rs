//! The `statsize-serve` JSONL front-end over the serve-mode session
//! core ([`statsize::SessionStore`]).
//!
//! One request per stdin line, one response per stdout line, both JSON
//! objects — hand-rolled on [`statsize::wire`] in the style of the
//! campaign journal, no external dependencies. Blank lines and `#`
//! comment lines are ignored, so a scripted transcript can annotate
//! itself.
//!
//! # Requests
//!
//! Every request carries an `"op"` and is answered in order. `"id"` is
//! optional and echoed verbatim (as `null` when absent).
//!
//! | op         | fields                                                        |
//! |------------|---------------------------------------------------------------|
//! | `load`     | `design`, optional `seed` (default 1), `dt` (default 2.0)     |
//! | `open`     | `session`, `design`, optional `selector`/`iters`/`delta_w`/`percentile` |
//! | `fork`     | `session` (new name), `from`                                  |
//! | `close`    | `session`                                                     |
//! | `what_if`  | `session`, `gate`, `delta_w`                                  |
//! | `commit`   | `session`, `gate`, `delta_w`                                  |
//! | `step`     | `session`                                                     |
//! | `snapshot` | `session`, `name`                                             |
//! | `rollback` | `session`, `name`                                             |
//! | `query`    | `session`                                                     |
//! | `batch`    | `requests`: array of session-op objects (the ops above minus  |
//! |            | the structural four), scheduled concurrently per session      |
//! | `stats`    | none — admission counters, per-session rows, batch shape      |
//! | `shutdown` | none — seal the WAL and stop the serve loop after responding  |
//!
//! Every per-session op (alone or inside a `batch` entry) accepts an
//! optional `deadline_ms`: a cooperative per-query deadline budget.
//! Overruns answer the typed `deadline_expired` error and leave the
//! session healthy; `deadline_ms: 0` always expires before the query
//! runs, making it the deterministic way to exercise the path.
//!
//! # Durability
//!
//! [`with_wal`](Server::with_wal) attaches a write-ahead log
//! ([`statsize::wal`]): every durable mutation — loads, opens, forks,
//! closes, committed resizes, the moves a `step` committed, snapshots,
//! rollbacks — is appended and fsynced before the response line goes
//! out. Speculative `what_if`s and reads are never logged. After a
//! crash, [`restore`](Server::restore) replays a WAL's durable prefix
//! through the live entry points, rebuilding every session
//! bit-identically — and re-appends the restored history to the fresh
//! WAL so a second crash loses nothing either.
//!
//! Designs are resolved like every other harness binary
//! ([`crate::suite::build_circuit`]): `c17`, the embedded
//! `c499`/`c1355` reconstructions, ISCAS-85 profile names, or `gen<N>`.
//! Gates are addressed by the net they drive.
//!
//! # Responses and determinism
//!
//! Success: `{"id":…,"ok":true,"op":…,…}`. Failure:
//! `{"id":…,"ok":false,"error":{"code":…,"message":…}}` with the
//! session core's stable [`QueryError::code`] strings (front-end
//! parse failures use `bad_request`, unresolvable designs
//! `unknown_circuit`). Responses carry no wall clocks by default and
//! floats are rendered with Rust's shortest-round-trip `Display`, so a
//! transcript replays **byte-identically** across runs and thread
//! budgets; `with_timing` opts into an `elapsed_us` field on `step`
//! responses (and breaks that guarantee, as do `deadline_ms` steps,
//! which may truncate at a wall-clock-dependent iteration).

use statsize::wal::{self, RecoveryStats, Wal, WalContents, WalError, WalRecord};
use statsize::wire::{self, escape, get, get_f64, get_str, Json};
use statsize::{
    Design, Objective, OpReport, Optimizer, QueryError, QueryRequest, SelectorKind, SessionOp,
    SessionStore,
};
use statsize_cells::CellLibrary;
use std::fmt::Write as _;
use std::time::Duration;

use crate::suite;

/// The serve-mode request interpreter: owns the session store and turns
/// one request line into one response line. The I/O loop around it
/// lives in the `statsize-serve` binary; keeping the interpreter here
/// makes whole-protocol transcripts testable in-process.
#[derive(Debug, Default)]
pub struct Server {
    store: SessionStore,
    timing: bool,
    wal: Option<Wal>,
    shutdown: bool,
}

/// A front-end-level request fault (before the session core is
/// reached): a malformed line, a missing field, or an unresolvable
/// design name.
struct BadRequest {
    code: &'static str,
    message: String,
}

impl BadRequest {
    fn new(message: impl Into<String>) -> Self {
        Self {
            code: "bad_request",
            message: message.into(),
        }
    }
}

impl From<String> for BadRequest {
    fn from(message: String) -> Self {
        BadRequest::new(message)
    }
}

impl Server {
    /// An empty server: no designs, no sessions, serial batches, no
    /// timing fields.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the total worker-thread budget for `batch` requests
    /// ([`SessionStore::with_total_threads`]). Responses are
    /// bit-identical for every budget.
    #[must_use]
    pub fn with_total_threads(mut self, total: usize) -> Self {
        self.store = std::mem::take(&mut self.store).with_total_threads(total);
        self
    }

    /// Opts into `elapsed_us` wall-clock fields on `step` responses —
    /// off by default so transcripts replay byte-identically.
    #[must_use]
    pub fn with_timing(mut self, timing: bool) -> Self {
        self.timing = timing;
        self
    }

    /// Caps the session table ([`SessionStore::with_max_sessions`]):
    /// opens and forks beyond the cap answer the typed `session_limit`
    /// error.
    #[must_use]
    pub fn with_max_sessions(mut self, limit: usize) -> Self {
        self.store = std::mem::take(&mut self.store).with_max_sessions(limit);
        self
    }

    /// Caps a single `batch` request ([`SessionStore::with_max_batch`]):
    /// larger batches are refused wholesale with `batch_limit` on every
    /// entry.
    #[must_use]
    pub fn with_max_batch(mut self, limit: usize) -> Self {
        self.store = std::mem::take(&mut self.store).with_max_batch(limit);
        self
    }

    /// Sets a default per-query deadline budget for requests that carry
    /// no `deadline_ms` ([`SessionStore::with_query_deadline`]).
    #[must_use]
    pub fn with_query_deadline(mut self, budget: Duration) -> Self {
        self.store = std::mem::take(&mut self.store).with_query_deadline(budget);
        self
    }

    /// Attaches a write-ahead log: every durable mutation is appended
    /// (and fsynced) before its response line is returned.
    #[must_use]
    pub fn with_wal(mut self, wal: Wal) -> Self {
        self.wal = Some(wal);
        self
    }

    /// The underlying session store.
    pub fn store(&self) -> &SessionStore {
        &self.store
    }

    /// True once a `shutdown` request has been handled — the serve loop
    /// should stop reading after writing the response.
    pub fn should_shutdown(&self) -> bool {
        self.shutdown
    }

    /// Seals the WAL for a clean stop (end of input or `shutdown`).
    /// Idempotent; a no-op without a WAL.
    pub fn finish(&mut self) {
        if let Some(wal) = &mut self.wal {
            wal.seal();
        }
    }

    /// Replays a recovered WAL's durable prefix into this server's
    /// store, restoring every session bit-identically, then re-appends
    /// the restored history to the attached WAL (if any) as a
    /// checkpoint prefix — a crash after recovery still recovers
    /// everything.
    ///
    /// # Errors
    ///
    /// [`WalError::Replay`] when a record is refused (see
    /// [`wal::apply`]); the caller should treat recovery as failed
    /// rather than serve from half-restored state.
    pub fn restore(&mut self, contents: &WalContents) -> Result<RecoveryStats, WalError> {
        let stats = wal::apply(&contents.records, &mut self.store, |name, seed, dt| {
            suite::try_build_circuit(name, seed)
                .map(|netlist| {
                    Design::new(name, netlist, CellLibrary::synthetic_180nm()).with_dt(dt)
                })
                .map_err(|e| e.to_string())
        })?;
        if let Some(w) = &mut self.wal {
            for record in &contents.records {
                w.append(record);
            }
        }
        Ok(stats)
    }

    /// Appends one record to the attached WAL, if any.
    fn wal_append(&mut self, record: WalRecord) {
        if let Some(wal) = &mut self.wal {
            wal.append(&record);
        }
    }

    /// Logs the durable effects of a slice of answered session ops, in
    /// request order: committed resizes, non-empty step rounds (their
    /// moves re-addressed by output net name, exactly as responses
    /// render them), snapshots, and rollbacks. Speculative and read-only
    /// ops — and failed ones — leave no trace.
    fn log_session_results(
        &mut self,
        requests: &[QueryRequest],
        results: &[Result<OpReport, QueryError>],
    ) {
        if self.wal.is_none() {
            return;
        }
        let mut records = Vec::new();
        for (request, result) in requests.iter().zip(results) {
            let Ok(report) = result else { continue };
            let session = &request.session;
            match report {
                OpReport::Commit(r) => records.push(WalRecord::Commit {
                    session: session.clone(),
                    gate: r.gate.clone(),
                    delta_w: r.delta_w,
                }),
                OpReport::Step(step) if !step.records.is_empty() => {
                    // A successful step implies the session is live.
                    let Some(live) = self.store.session(session) else {
                        continue;
                    };
                    let netlist = live.design().netlist();
                    let delta_w = live.optimizer().delta_w();
                    let moves = step
                        .records
                        .iter()
                        .map(|r| {
                            let net = netlist.net(netlist.gate(r.gate).output());
                            (net.name().to_string(), delta_w)
                        })
                        .collect();
                    records.push(WalRecord::Step {
                        session: session.clone(),
                        moves,
                    });
                }
                OpReport::Snapshot { name } => records.push(WalRecord::Snapshot {
                    session: session.clone(),
                    name: name.clone(),
                }),
                OpReport::Rollback { name } => records.push(WalRecord::Rollback {
                    session: session.clone(),
                    name: name.clone(),
                }),
                OpReport::WhatIf(_) | OpReport::Query(_) | OpReport::Step(_) => {}
            }
        }
        if let Some(wal) = &mut self.wal {
            for record in &records {
                wal.append(record);
            }
        }
    }

    /// Handles one transcript line: `None` for blank and `#`-comment
    /// lines, otherwise exactly one response line (a parse failure is
    /// itself a well-formed error response — the serve loop never
    /// dies on bad input).
    pub fn handle_line(&mut self, line: &str) -> Option<String> {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return None;
        }
        Some(match self.handle(line) {
            Ok(response) => response,
            Err((id, bad)) => {
                format!(
                    "{{\"id\":{},\"ok\":false,\"error\":{{\"code\":\"{}\",\"message\":\"{}\"}}}}",
                    id,
                    bad.code,
                    escape(&bad.message)
                )
            }
        })
    }

    fn handle(&mut self, line: &str) -> Result<String, (String, BadRequest)> {
        let json = wire::parse(line).map_err(|e| {
            (
                "null".to_string(),
                BadRequest::new(format!("bad JSON: {e}")),
            )
        })?;
        let obj = json.as_object().ok_or_else(|| {
            (
                "null".to_string(),
                BadRequest::new("request must be an object"),
            )
        })?;
        let id = render_id(obj);
        self.dispatch(obj)
            .map(|body| format!("{{\"id\":{id},\"ok\":true,{body}}}"))
            .map_err(|bad| (id, bad))
    }

    fn dispatch(&mut self, obj: &[(String, Json)]) -> Result<String, BadRequest> {
        let op = get_str(obj, "op")?;
        match op {
            "load" => self.load(obj),
            "open" => self.open(obj),
            "fork" => self.fork(obj),
            "close" => self.close(obj),
            "batch" => self.batch(obj),
            "stats" => self.stats(),
            "shutdown" => {
                self.shutdown = true;
                self.finish();
                Ok("\"op\":\"shutdown\"".to_string())
            }
            _ => {
                let requests = [parse_session_op(obj)?];
                let results = self.store.batch(&requests);
                self.log_session_results(&requests, &results);
                let result = results.into_iter().next().expect("one result per request");
                let report = result.map_err(query_error)?;
                let mut body = format!("\"op\":\"{}\",", escape(op));
                self.render_report(&requests[0].session, &report, &mut body);
                Ok(body)
            }
        }
    }

    fn load(&mut self, obj: &[(String, Json)]) -> Result<String, BadRequest> {
        let name = get_str(obj, "design")?;
        let seed = match get(obj, "seed").ok() {
            Some(v) => {
                v.as_f64()
                    .ok_or_else(|| BadRequest::new("seed must be a number"))? as u64
            }
            None => 1,
        };
        let dt = match get(obj, "dt").ok() {
            Some(v) => {
                let dt = v
                    .as_f64()
                    .ok_or_else(|| BadRequest::new("dt must be a number"))?;
                if !(dt.is_finite() && dt > 0.0) {
                    return Err(BadRequest::new("dt must be positive"));
                }
                dt
            }
            None => 2.0,
        };
        let netlist = suite::try_build_circuit(name, seed).map_err(|e| BadRequest {
            code: "unknown_circuit",
            message: e.to_string(),
        })?;
        let stats = netlist.stats();
        let design = Design::new(name, netlist, CellLibrary::synthetic_180nm()).with_dt(dt);
        self.store.add_design(design).map_err(query_error)?;
        self.wal_append(WalRecord::Load {
            design: name.to_string(),
            seed,
            dt,
        });
        Ok(format!(
            "\"op\":\"load\",\"design\":\"{}\",\"gates\":{},\"nodes\":{}",
            escape(name),
            stats.gates,
            stats.timing_nodes
        ))
    }

    fn open(&mut self, obj: &[(String, Json)]) -> Result<String, BadRequest> {
        let session = get_str(obj, "session")?;
        let design = get_str(obj, "design")?;
        let optimizer = parse_optimizer(obj)?;
        self.store
            .open(session, design, optimizer.clone())
            .map_err(query_error)?;
        self.wal_append(WalRecord::Open {
            session: session.to_string(),
            design: design.to_string(),
            selector: optimizer.selector().wire_name(),
            objective: optimizer.objective().wire_name(),
            max_iterations: optimizer.max_iterations(),
            delta_w: optimizer.delta_w(),
        });
        Ok(format!(
            "\"op\":\"open\",\"session\":\"{}\",\"design\":\"{}\"",
            escape(session),
            escape(design)
        ))
    }

    fn fork(&mut self, obj: &[(String, Json)]) -> Result<String, BadRequest> {
        let session = get_str(obj, "session")?;
        let from = get_str(obj, "from")?;
        self.store.fork(session, from).map_err(query_error)?;
        self.wal_append(WalRecord::Fork {
            session: session.to_string(),
            from: from.to_string(),
        });
        Ok(format!(
            "\"op\":\"fork\",\"session\":\"{}\",\"from\":\"{}\"",
            escape(session),
            escape(from)
        ))
    }

    fn close(&mut self, obj: &[(String, Json)]) -> Result<String, BadRequest> {
        let session = get_str(obj, "session")?;
        self.store.close(session).map_err(query_error)?;
        self.wal_append(WalRecord::Close {
            session: session.to_string(),
        });
        Ok(format!(
            "\"op\":\"close\",\"session\":\"{}\"",
            escape(session)
        ))
    }

    fn batch(&mut self, obj: &[(String, Json)]) -> Result<String, BadRequest> {
        let requests = get(obj, "requests")
            .ok()
            .and_then(Json::as_array)
            .ok_or_else(|| BadRequest::new("batch needs a `requests` array"))?;
        let mut parsed = Vec::with_capacity(requests.len());
        for (i, request) in requests.iter().enumerate() {
            let obj = request
                .as_object()
                .ok_or_else(|| BadRequest::new(format!("batch request {i} must be an object")))?;
            parsed.push(
                parse_session_op(obj).map_err(|bad| {
                    BadRequest::new(format!("batch request {i}: {}", bad.message))
                })?,
            );
        }
        let results = self.store.batch(&parsed);
        self.log_session_results(&parsed, &results);
        let mut body = String::from("\"op\":\"batch\",\"results\":[");
        for (i, (request, result)) in parsed.iter().zip(results).enumerate() {
            let session = &request.session;
            if i > 0 {
                body.push(',');
            }
            match result {
                Ok(report) => {
                    let _ = write!(body, "{{\"ok\":true,\"session\":\"{}\",", escape(session));
                    self.render_report(session, &report, &mut body);
                    body.push('}');
                }
                Err(err) => {
                    let _ = write!(
                        body,
                        "{{\"ok\":false,\"session\":\"{}\",\"error\":{}}}",
                        escape(session),
                        render_query_error(&err)
                    );
                }
            }
        }
        body.push(']');
        Ok(body)
    }

    /// Renders the store's deterministic health snapshot
    /// ([`SessionStore::stats`]): configuration, admission counters,
    /// the last batch's scheduling shape, and one row per session. No
    /// wall clocks — identical request histories render identical
    /// `stats` responses.
    fn stats(&self) -> Result<String, BadRequest> {
        let stats = self.store.stats();
        let opt = |v: Option<usize>| v.map_or("null".to_string(), |n| n.to_string());
        let mut body = format!(
            "\"op\":\"stats\",\"designs\":{},\"total_threads\":{},\
             \"max_sessions\":{},\"max_batch\":{},\"deadline_ms\":{},",
            stats.designs,
            stats.total_threads,
            opt(stats.max_sessions),
            opt(stats.max_batch),
            stats
                .query_deadline
                .map_or("null".to_string(), |d| format!("{}", d.as_secs_f64() * 1e3)),
        );
        let c = stats.counters;
        let _ = write!(
            body,
            "\"queries\":{},\"batches\":{},\"rejected_sessions\":{},\
             \"rejected_batches\":{},\"deadline_expired\":{},",
            c.queries, c.batches, c.rejected_sessions, c.rejected_batches, c.deadline_expired
        );
        match stats.last_batch {
            Some(b) => {
                let _ = write!(
                    body,
                    "\"last_batch\":{{\"requests\":{},\"groups\":{},\"workers\":{}}},",
                    b.requests, b.groups, b.workers
                );
            }
            None => body.push_str("\"last_batch\":null,"),
        }
        body.push_str("\"sessions\":[");
        for (i, s) in stats.sessions.iter().enumerate() {
            if i > 0 {
                body.push(',');
            }
            let _ = write!(
                body,
                "{{\"session\":\"{}\",\"design\":\"{}\",\"nodes\":{},\
                 \"thread_grant\":{},\"commits\":{},\"steps\":{},\
                 \"snapshots\":{},\"poisoned\":{}}}",
                escape(&s.session),
                escape(&s.design),
                s.nodes,
                s.thread_grant,
                s.commits,
                s.steps,
                s.snapshots,
                s.poisoned
            );
        }
        body.push(']');
        Ok(body)
    }

    /// Renders a successful [`OpReport`] as response-body fields.
    fn render_report(&self, session: &str, report: &OpReport, body: &mut String) {
        match report {
            OpReport::WhatIf(r) => {
                let _ = write!(
                    body,
                    "\"gate\":\"{}\",\"delta_w\":{},\"objective_before\":{},\
                     \"objective\":{},\"total_width\":{},\"area\":{}",
                    escape(&r.gate),
                    r.delta_w,
                    r.objective_before,
                    r.objective,
                    r.total_width,
                    r.area
                );
            }
            OpReport::Commit(r) => {
                let _ = write!(
                    body,
                    "\"gate\":\"{}\",\"delta_w\":{},\"objective\":{},\
                     \"total_width\":{},\"area\":{},\"commits\":{}",
                    escape(&r.gate),
                    r.delta_w,
                    r.objective,
                    r.total_width,
                    r.area,
                    r.commits
                );
            }
            OpReport::Step(step) => {
                let stop = match step.stop {
                    Some(reason) => format!("\"{reason:?}\""),
                    None => "null".to_string(),
                };
                let _ = write!(
                    body,
                    "\"committed\":{},\"stop\":{stop},\"records\":[",
                    step.records.len()
                );
                for (i, record) in step.records.iter().enumerate() {
                    if i > 0 {
                        body.push(',');
                    }
                    // Records address gates the way requests do: by the
                    // driven net's name.
                    let gate = self
                        .store
                        .session(session)
                        .map(|s| {
                            let netlist = s.design().netlist();
                            netlist
                                .net(netlist.gate(record.gate).output())
                                .name()
                                .to_string()
                        })
                        .unwrap_or_else(|| format!("#{}", record.gate.index()));
                    let _ = write!(
                        body,
                        "{{\"iteration\":{},\"gate\":\"{}\",\"sensitivity\":{},\
                         \"objective\":{},\"total_width\":{}",
                        record.iteration,
                        escape(&gate),
                        record.sensitivity,
                        record.objective_after,
                        record.total_width_after
                    );
                    if self.timing {
                        let _ = write!(body, ",\"elapsed_us\":{}", record.elapsed.as_micros());
                    }
                    body.push('}');
                }
                body.push(']');
            }
            OpReport::Snapshot { name } => {
                let _ = write!(body, "\"name\":\"{}\"", escape(name));
            }
            OpReport::Rollback { name } => {
                let _ = write!(body, "\"name\":\"{}\"", escape(name));
            }
            OpReport::Query(info) => {
                let _ = write!(
                    body,
                    "\"design\":\"{}\",\"objective\":{},\"total_width\":{},\"area\":{},\
                     \"commits\":{},\"steps\":{},\"snapshots\":[",
                    escape(&info.design),
                    info.objective,
                    info.total_width,
                    info.area,
                    info.commits,
                    info.steps
                );
                for (i, name) in info.snapshots.iter().enumerate() {
                    if i > 0 {
                        body.push(',');
                    }
                    let _ = write!(body, "\"{}\"", escape(name));
                }
                body.push(']');
            }
        }
    }
}

/// Echoes the request's `id` field (any JSON value) or `null`.
fn render_id(obj: &[(String, Json)]) -> String {
    match get(obj, "id").ok() {
        None | Some(Json::Null) => "null".to_string(),
        Some(Json::Num(n)) => format!("{n}"),
        Some(Json::Str(s)) => format!("\"{}\"", escape(s)),
        Some(Json::Bool(b)) => b.to_string(),
        Some(_) => "null".to_string(),
    }
}

fn query_error(err: QueryError) -> BadRequest {
    BadRequest {
        code: err.code(),
        message: err.to_string(),
    }
}

fn render_query_error(err: &QueryError) -> String {
    format!(
        "{{\"code\":\"{}\",\"message\":\"{}\"}}",
        err.code(),
        escape(&err.to_string())
    )
}

/// Parses the per-session ops shared by single requests and `batch`
/// entries — `what_if`, `commit`, `step`, `snapshot`, `rollback`,
/// `query` — plus the optional `deadline_ms` every one of them accepts.
fn parse_session_op(obj: &[(String, Json)]) -> Result<QueryRequest, BadRequest> {
    let session = get_str(obj, "session")?.to_string();
    let op = match get_str(obj, "op")? {
        "what_if" => SessionOp::WhatIf {
            gate: get_str(obj, "gate")?.to_string(),
            delta_w: get_f64(obj, "delta_w")?,
        },
        "commit" => SessionOp::Commit {
            gate: get_str(obj, "gate")?.to_string(),
            delta_w: get_f64(obj, "delta_w")?,
        },
        "step" => SessionOp::Step,
        "snapshot" => SessionOp::Snapshot {
            name: get_str(obj, "name")?.to_string(),
        },
        "rollback" => SessionOp::Rollback {
            name: get_str(obj, "name")?.to_string(),
        },
        "query" => SessionOp::Query,
        other => return Err(BadRequest::new(format!("unknown op `{other}`"))),
    };
    let mut request = QueryRequest::new(session, op);
    if let Ok(v) = get(obj, "deadline_ms") {
        let ms = v
            .as_f64()
            .ok_or_else(|| BadRequest::new("deadline_ms must be a number"))?;
        if !(ms.is_finite() && ms >= 0.0) {
            return Err(BadRequest::new("deadline_ms must be non-negative"));
        }
        request.deadline = Some(Duration::from_secs_f64(ms / 1e3));
    }
    Ok(request)
}

/// Builds the session's optimizer from the optional `open` fields,
/// defaulting to the campaign driver's configuration (pruned selector,
/// 99th percentile, 40 iterations, `Δw = 1`).
fn parse_optimizer(obj: &[(String, Json)]) -> Result<Optimizer, BadRequest> {
    let selector = match get(obj, "selector").ok() {
        Some(Json::Str(v)) => parse_selector(v)?,
        Some(_) => return Err(BadRequest::new("selector must be a string")),
        None => SelectorKind::Pruned,
    };
    let percentile = match get(obj, "percentile").ok() {
        Some(v) => {
            let p = v
                .as_f64()
                .ok_or_else(|| BadRequest::new("percentile must be a number"))?;
            // Open interval, as `Objective::from_wire` enforces: the 0th
            // and 100th percentiles are not objectives.
            if !(p > 0.0 && p < 1.0) {
                return Err(BadRequest::new("percentile must be in (0, 1)"));
            }
            p
        }
        None => 0.99,
    };
    let mut optimizer = Optimizer::new(Objective::percentile(percentile), selector);
    if let Ok(v) = get(obj, "iters") {
        let iters = v
            .as_f64()
            .filter(|&n| n >= 0.0 && n.fract() == 0.0)
            .ok_or_else(|| BadRequest::new("iters must be a non-negative integer"))?;
        optimizer = optimizer.with_max_iterations(iters as usize);
    }
    if let Ok(v) = get(obj, "delta_w") {
        let delta_w = v
            .as_f64()
            .filter(|&d| d.is_finite() && d > 0.0)
            .ok_or_else(|| BadRequest::new("delta_w must be positive"))?;
        optimizer = optimizer.with_delta_w(delta_w);
    }
    Ok(optimizer)
}

fn parse_selector(v: &str) -> Result<SelectorKind, BadRequest> {
    // The protocol's selector names are exactly the WAL's stable wire
    // vocabulary — one parser serves both.
    SelectorKind::from_wire(v).map_err(BadRequest::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(server: &mut Server, transcript: &str) -> Vec<String> {
        transcript
            .lines()
            .filter_map(|line| server.handle_line(line))
            .collect()
    }

    const SCRIPT: &str = r#"
        # a scripted two-session exploration
        {"id":1,"op":"load","design":"c17"}
        {"id":2,"op":"open","session":"main","design":"c17","iters":4}
        {"id":3,"op":"what_if","session":"main","gate":"22","delta_w":1}
        {"id":4,"op":"commit","session":"main","gate":"22","delta_w":1}
        {"id":5,"op":"snapshot","session":"main","name":"base"}
        {"id":6,"op":"fork","session":"alt","from":"main"}
        {"id":7,"op":"batch","requests":[{"op":"step","session":"main"},{"op":"what_if","session":"alt","gate":"16","delta_w":2}]}
        {"id":8,"op":"rollback","session":"main","name":"base"}
        {"id":9,"op":"query","session":"main"}
        {"id":10,"op":"query","session":"alt"}
        {"id":11,"op":"close","session":"alt"}
    "#;

    #[test]
    fn transcripts_replay_byte_identically_across_thread_budgets() {
        let reference = drive(&mut Server::new(), SCRIPT);
        assert_eq!(reference.len(), 11);
        assert!(
            reference.iter().all(|r| r.contains("\"ok\":true")),
            "{reference:?}"
        );
        for budget in [1, 4] {
            let replay = drive(&mut Server::new().with_total_threads(budget), SCRIPT);
            assert_eq!(replay, reference, "diverged under budget {budget}");
        }
    }

    #[test]
    fn responses_are_parseable_json_with_echoed_ids() {
        let responses = drive(&mut Server::new(), SCRIPT);
        for (i, line) in responses.iter().enumerate() {
            let json = wire::parse(line).unwrap_or_else(|e| panic!("response {i}: {e}: {line}"));
            let obj = json.as_object().expect("response object");
            assert_eq!(
                get(obj, "id").ok().and_then(Json::as_f64),
                Some((i + 1) as f64),
                "{line}"
            );
        }
    }

    #[test]
    fn faults_are_structured_error_responses() {
        let mut server = Server::new();
        let cases = [
            ("not json at all", "bad_request"),
            ("{\"op\":\"what_if\",\"session\":\"s\"}", "bad_request"),
            ("{\"op\":\"frobnicate\",\"session\":\"s\"}", "bad_request"),
            ("{\"op\":\"load\",\"design\":\"c404\"}", "unknown_circuit"),
            (
                "{\"op\":\"query\",\"session\":\"ghost\"}",
                "unknown_session",
            ),
            (
                "{\"op\":\"close\",\"session\":\"ghost\"}",
                "unknown_session",
            ),
        ];
        for (line, code) in cases {
            let response = server.handle_line(line).expect("a response");
            assert!(
                response.contains("\"ok\":false") && response.contains(code),
                "expected `{code}` in: {response}"
            );
            wire::parse(&response).expect("error responses are valid JSON");
        }
        // And the error path inside a live session.
        server.handle_line("{\"op\":\"load\",\"design\":\"c17\"}");
        server.handle_line("{\"op\":\"open\",\"session\":\"s\",\"design\":\"c17\"}");
        let response = server
            .handle_line("{\"op\":\"what_if\",\"session\":\"s\",\"gate\":\"nope\",\"delta_w\":1}")
            .expect("a response");
        assert!(response.contains("unknown_gate"), "{response}");
    }

    #[test]
    fn percentile_endpoints_are_rejected_and_the_server_keeps_answering() {
        let mut server = Server::new();
        server.handle_line("{\"op\":\"load\",\"design\":\"c17\"}");
        for p in ["0", "1"] {
            let line = format!(
                "{{\"op\":\"open\",\"session\":\"s\",\"design\":\"c17\",\"percentile\":{p}}}"
            );
            let response = server.handle_line(&line).expect("a response");
            assert!(
                response.contains("\"ok\":false") && response.contains("bad_request"),
                "percentile {p}: {response}"
            );
        }
        let response = server
            .handle_line(
                "{\"op\":\"open\",\"session\":\"s\",\"design\":\"c17\",\"percentile\":0.5}",
            )
            .expect("a response");
        assert!(response.contains("\"ok\":true"), "{response}");
    }

    #[test]
    fn comments_and_blanks_produce_no_response() {
        let mut server = Server::new();
        assert_eq!(server.handle_line(""), None);
        assert_eq!(server.handle_line("   "), None);
        assert_eq!(server.handle_line("# commentary"), None);
    }

    #[test]
    fn zero_deadline_is_a_typed_error_on_any_op_and_session_stays_healthy() {
        let mut server = Server::new();
        server.handle_line("{\"op\":\"load\",\"design\":\"c17\"}");
        server.handle_line("{\"op\":\"open\",\"session\":\"s\",\"design\":\"c17\"}");
        for op in [
            "{\"op\":\"step\",\"session\":\"s\",\"deadline_ms\":0}",
            "{\"op\":\"query\",\"session\":\"s\",\"deadline_ms\":0}",
            "{\"op\":\"commit\",\"session\":\"s\",\"gate\":\"22\",\"delta_w\":1,\"deadline_ms\":0}",
        ] {
            let response = server.handle_line(op).expect("a response");
            assert!(response.contains("deadline_expired"), "{response}");
        }
        // Inside a batch entry too.
        let response = server
            .handle_line(
                "{\"op\":\"batch\",\"requests\":[{\"op\":\"query\",\"session\":\"s\",\
                 \"deadline_ms\":0},{\"op\":\"query\",\"session\":\"s\"}]}",
            )
            .expect("a response");
        assert!(response.contains("deadline_expired"), "{response}");
        assert!(response.contains("\"ok\":true"), "{response}");
        // The session survived every expiry, unperturbed.
        let response = server
            .handle_line("{\"op\":\"query\",\"session\":\"s\"}")
            .expect("a response");
        assert!(response.contains("\"ok\":true"), "{response}");
        assert!(response.contains("\"commits\":0"), "{response}");
        // Bad deadlines are parse errors.
        let response = server
            .handle_line("{\"op\":\"query\",\"session\":\"s\",\"deadline_ms\":-1}")
            .expect("a response");
        assert!(response.contains("bad_request"), "{response}");
    }

    #[test]
    fn admission_caps_answer_typed_errors_and_stats_counts_them() {
        let mut server = Server::new().with_max_sessions(1).with_max_batch(2);
        server.handle_line("{\"op\":\"load\",\"design\":\"c17\"}");
        server.handle_line("{\"op\":\"open\",\"session\":\"a\",\"design\":\"c17\"}");
        let response = server
            .handle_line("{\"op\":\"open\",\"session\":\"b\",\"design\":\"c17\"}")
            .expect("a response");
        assert!(response.contains("session_limit"), "{response}");
        let response = server
            .handle_line("{\"op\":\"fork\",\"session\":\"b\",\"from\":\"a\"}")
            .expect("a response");
        assert!(response.contains("session_limit"), "{response}");
        let response = server
            .handle_line(
                "{\"op\":\"batch\",\"requests\":[{\"op\":\"query\",\"session\":\"a\"},\
                 {\"op\":\"query\",\"session\":\"a\"},{\"op\":\"query\",\"session\":\"a\"}]}",
            )
            .expect("a response");
        assert!(response.contains("batch_limit"), "{response}");
        assert!(
            !response.contains("{\"ok\":true"),
            "no entry ran: {response}"
        );

        let stats = server
            .handle_line("{\"id\":9,\"op\":\"stats\"}")
            .expect("a response");
        wire::parse(&stats).expect("stats is valid JSON");
        assert!(stats.contains("\"max_sessions\":1"), "{stats}");
        assert!(stats.contains("\"max_batch\":2"), "{stats}");
        assert!(stats.contains("\"rejected_sessions\":2"), "{stats}");
        assert!(stats.contains("\"rejected_batches\":1"), "{stats}");
        assert!(stats.contains("\"session\":\"a\""), "{stats}");
        // Stats are deterministic: ask twice (different id), same body.
        let again = server
            .handle_line("{\"id\":9,\"op\":\"stats\"}")
            .expect("a response");
        assert_eq!(stats, again);
    }

    #[test]
    fn shutdown_responds_then_stops_the_loop() {
        let mut server = Server::new();
        assert!(!server.should_shutdown());
        let response = server
            .handle_line("{\"id\":1,\"op\":\"shutdown\"}")
            .expect("a response");
        assert!(response.contains("\"ok\":true"), "{response}");
        assert!(server.should_shutdown());
    }

    #[test]
    fn wal_round_trip_restores_sessions_bit_identically() {
        let dir = std::env::temp_dir().join("statsize-serve-test-wal");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.jsonl");

        // Reference: the full script on a WAL-less server, then probes.
        let probes = "{\"id\":90,\"op\":\"query\",\"session\":\"main\"}\n\
                      {\"id\":91,\"op\":\"what_if\",\"session\":\"main\",\"gate\":\"19\",\"delta_w\":1}\n\
                      {\"id\":92,\"op\":\"step\",\"session\":\"main\"}";
        let mut reference_server = Server::new();
        drive(&mut reference_server, SCRIPT);
        let reference = drive(&mut reference_server, probes);

        // Same script on a WAL-attached server that is then dropped
        // without sealing — the crash case.
        let mut server = Server::new().with_wal(Wal::create(&path).expect("create"));
        drive(&mut server, SCRIPT);
        drop(server);

        let contents = wal::read(&path).expect("read");
        assert!(!contents.sealed, "no seal without finish()");
        let mut recovered = Server::new();
        let stats = recovered.restore(&contents).expect("restore");
        assert_eq!(stats.designs, 1);
        assert_eq!(stats.sessions, 2, "main opened, alt forked");
        assert_eq!(stats.closed, 1, "alt closed again");
        assert!(stats.commits >= 1);
        let replies = drive(&mut recovered, probes);
        assert_eq!(replies, reference, "recovery must be bit-identical");

        // finish() seals; sealed WALs recover identically.
        let mut server = Server::new().with_wal(Wal::create(&path).expect("create"));
        drive(&mut server, SCRIPT);
        server.finish();
        let contents = wal::read(&path).expect("read sealed");
        assert!(contents.sealed);
        let mut recovered = Server::new();
        recovered.restore(&contents).expect("restore sealed");
        assert_eq!(drive(&mut recovered, probes), reference);

        std::fs::remove_dir_all(&dir).ok();
    }
}
