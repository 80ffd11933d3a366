//! The serve workloads: a fitted fleet behind in-process daemons over
//! loopback TCP, driven by closed-loop client connections.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fis_core::evaluate::score_prediction;
use fis_core::{FisOne, FisOneConfig};
use fis_serve::registry::RegistryStats;
use fis_serve::{Daemon, DaemonConfig, RegistryConfig, Router, RouterConfig};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::corpus::{
    block_counts, building_seed, cumulative, draw_rank, fastest, median, quantile, zipf_weights,
    Site,
};
use crate::report::{check_config, fingerprint, set_request_metrics, Outcome, Window};
use crate::tenant::Tenant;
use crate::{probe, Ctx, Scale};

/// Scans per request.
const BATCH: usize = 16;

/// Latency limit of one request for `slo_share`.
const SLO_MS: f64 = 25.0;

/// Closed-loop client connections, at most one per core.
const CONNECTIONS: usize = 2;

/// Worker threads of each daemon and of the router: enough for every
/// client, router and probe connection, so none queues behind another.
const POOL: usize = 8;

/// Answer-cache capacity per model on `serve-skewed`.
const ASSIGN_CACHE: usize = 128;

/// Zipf exponent of `serve-skewed`, over buildings and over the
/// held-out scans of each building.
const ZIPF: f64 = 1.1;

/// Building draws come in blocks with exact Zipf counts, so the miss
/// rate depends on the order within a block, never on how many tail
/// draws a seed happens to make.
const BLOCK: usize = 100;

/// Rounds the run's seconds are split into. Each serves requests, then
/// refits one building with the clients idle: a check that refits give
/// the same labels, and samples of `fit_s` from every part of the run.
const ROUNDS: usize = 16;

/// Requests of the probe replay in the traced run.
const PROBE_FRAMES: usize = 200;

/// One serve workload's shape.
pub struct Spec {
    prefix: &'static str,
    buildings: usize,
    /// `0` serves from one daemon directly; otherwise a router fronts
    /// this many daemon shards, one replica per building.
    shards: usize,
    max_models: usize,
    assign_cache: usize,
    skewed: bool,
    /// Shard of each building by Zipf rank (router only).
    placement: Vec<usize>,
    /// Whether each round is a window of its own, the fast tenth giving
    /// the timing metrics (see [`set_request_metrics`]), or all rounds
    /// pool into one.
    window_per_round: bool,
}

impl Spec {
    pub fn fresh(scale: &Scale) -> Self {
        Self {
            prefix: "fresh",
            buildings: scale.fresh_buildings,
            shards: 0,
            max_models: 0,
            assign_cache: 0,
            skewed: false,
            placement: Vec::new(),
            window_per_round: true,
        }
    }

    pub fn skewed(scale: &Scale) -> Self {
        Self {
            prefix: "skewed",
            buildings: scale.skewed_buildings,
            shards: 2,
            max_models: scale.skewed_max_models,
            assign_cache: ASSIGN_CACHE,
            skewed: true,
            placement: scale.skewed_placement.clone(),
            // One window: a registry miss costs some 30 hits, so a
            // stretch of the run has its own mix of misses; only the
            // whole run holds the exact Zipf blocks.
            window_per_round: false,
        }
    }
}

pub fn run(ctx: &Ctx, spec: &Spec) -> Result<Outcome, String> {
    let rec = &ctx.rec;
    let mut out = Outcome::default();

    let setup = rec.span("setup", None);
    let setup_id = setup.id();
    let dir = ctx.scratch.join("models");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let tier = Tier::start(&dir, spec)?;
    let fis = FisOne::new(FisOneConfig::default().seed(ctx.seed));
    check_config(fis.config())?;
    out.config = fingerprint(fis.config());
    let mut tenants = Vec::with_capacity(spec.buildings);
    // The seconds of every fit of each building: its fleet fit, then its
    // refits.
    let mut fits: Vec<Vec<f64>> = Vec::with_capacity(spec.buildings);
    let (mut ari, mut edit) = (Vec::new(), Vec::new());
    for rank in 0..spec.buildings {
        let name = tier.name_for(spec, rank);
        let site = Site::generate(
            &name,
            ctx.scale.floors,
            ctx.scale.serve_train_per_floor,
            building_seed(ctx.seed, rank),
        );
        let train = &site.train;
        let anchor = train
            .bottom_anchor()
            .ok_or_else(|| format!("{name} has no bottom-floor scan to label"))?;
        let (model, seconds) = rec.time("core.fit", setup_id, || {
            fis.fit(&name, train.samples(), train.floors(), anchor)
        });
        let model = model.map_err(|e| format!("FisOne::fit({name}): {e}"))?;
        check_config(model.config())?;
        fits.push(vec![seconds]);
        let prediction = fis
            .index_assignment(train.samples(), model.assignment(), train.floors(), anchor)
            .map_err(|e| format!("index_assignment({name}): {e}"))?;
        let score = score_prediction(&prediction, train).map_err(|e| e.to_string())?;
        ari.push(score.ari);
        edit.push(score.edit);
        tenants.push(Tenant::new(site, model, &mut out));
    }
    probe::write_artifacts(&dir, &tenants)?;
    let setup_s = setup.finish();
    // The exactness invariant: every training scan is assigned its fit
    // label.
    for tenant in &tenants {
        let labels = tenant.model.training_labels();
        let train = tenant.site.train.samples();
        for (i, (scan, want)) in train.iter().zip(&labels).enumerate() {
            let got = tenant.model.assign(scan);
            out.check(got.as_ref() == Ok(want), || {
                format!(
                    "{} training scan {i}: assign gave {got:?}, fit label {want}",
                    tenant.name()
                )
            });
        }
    }
    // Quality is the median over the fleet's buildings: one hard
    // building among 4 or 8 would otherwise move a fleet mean by more
    // than any bound a regression gate can use.
    let accuracy: Vec<f64> = tenants
        .iter()
        .map(|t| t.right() as f64 / t.references.len().max(1) as f64)
        .collect();
    out.set("ari", median(&ari));
    out.set("edit_score", median(&edit));
    out.set("assign_accuracy", median(&accuracy));
    out.note(format!(
        "per-building ari {ari:.3?} edit {edit:.3?} accuracy {accuracy:.3?}"
    ));

    let connections = CONNECTIONS.min(std::thread::available_parallelism().map_or(1, |n| n.get()));
    let streams = Streams::new(&tenants, spec, ctx.seed);
    if ctx.corrupt_reference {
        // The first scan of the first request of connection 0: always sent.
        let (tenant, scans) = streams.stream(0).next_scans();
        tenants[tenant].corrupt(scans[0]);
    }

    // Untimed warm-up: every model resident (as far as `max_models`
    // allows) before measuring.
    let warm = rec.span("warmup", None);
    let mut control = Client::connect(&tier.endpoint)?;
    for tenant in &tenants {
        let response = control.call(&format!(
            r#"{{"op":"load","building":"{}"}}"#,
            tenant.name()
        ))?;
        if !response.contains(r#""ok":true"#) {
            return Err(format!("warm-up load of {}: {response}", tenant.name()));
        }
    }
    warm.finish();
    let before = tier.stats();

    let mut clients = (0..connections)
        .map(|_| Client::connect(&tier.endpoint))
        .collect::<Result<Vec<_>, _>>()?;
    let mut client_streams: Vec<Stream<'_>> = (0..connections).map(|c| streams.stream(c)).collect();
    let round_s = ctx.seconds / ROUNDS as f64;
    let mut refit_s = fits.iter().map(|f| f[0]).fold(f64::INFINITY, f64::min);
    let measure = rec.span("measure", None);
    let measure_id = measure.id();
    let mut windows = Vec::with_capacity(ROUNDS);
    for round in 0..ROUNDS {
        // Serve for what the round leaves after its refit, taken to last
        // as long as the one before.
        let started = Instant::now();
        let deadline = started + Duration::from_secs_f64((round_s - refit_s).max(round_s / 4.0));
        let results: Vec<Result<Driven, String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .iter_mut()
                .zip(client_streams.iter_mut())
                .map(|(client, stream)| {
                    let tenants = &tenants;
                    scope.spawn(move || drive(ctx, tenants, stream, client, deadline, measure_id))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let mut window = Window::default();
        for driven in results {
            let driven = driven?;
            out.attempted += driven.window.latencies_ms.len() as u64;
            for message in driven.failures {
                out.fail(message);
            }
            window.absorb(driven.window);
        }
        window.seconds = started.elapsed().as_secs_f64();
        windows.push(window);
        let b = round % tenants.len();
        refit_s = refit(ctx, &fis, &tenants[b], &mut out)?;
        fits[b].push(refit_s);
    }
    measure.finish();
    let after = tier.stats();
    drop(clients);

    let served_s: f64 = windows.iter().map(|w| w.seconds).sum();
    let good_scans: usize = windows.iter().map(|w| w.good_scans).sum();
    let latencies: Vec<f64> = windows
        .iter()
        .flat_map(|w| w.latencies_ms.iter().copied())
        .collect();
    if !spec.window_per_round {
        let mut pooled = Window::default();
        for window in windows.drain(..) {
            pooled.absorb(window);
        }
        windows.push(pooled);
    }
    set_request_metrics(&mut out, &windows);
    // Set-up is mostly the fleet fit: count each building's fit at the
    // median of its fits in the run, as if set-up had been repeated.
    let fleet_s: f64 = fits.iter().map(|f| f[0]).sum();
    let median_fleet_s: f64 = fits.iter().map(|f| median(f)).sum();
    out.set("setup_s", setup_s - fleet_s + median_fleet_s);
    out.set("fit_s", fastest(&fits.concat()));
    out.note(format!(
        "set-up {setup_s:.3} s, of which fleet fit {fleet_s:.3} s (median fits: {median_fleet_s:.3} s); \
         fit s per building, fleet then refits: {fits:.3?}"
    ));
    out.note(format!(
        "requests: {} over {connections} closed-loop connection(s) in {ROUNDS} rounds, \
         {served_s:.3} s serving, {:.0} correct scans/s; \
         latency ms p50 {:.3} p90 {:.3} p95 {:.3} p99 {:.3} p99.9 {:.3} max {:.3}",
        latencies.len(),
        good_scans as f64 / served_s,
        quantile(&latencies, 0.5),
        quantile(&latencies, 0.9),
        quantile(&latencies, 0.95),
        quantile(&latencies, 0.99),
        quantile(&latencies, 0.999),
        quantile(&latencies, 1.0),
    ));

    let misses = after.misses - before.misses;
    let hits = after.hits - before.hits;
    let lookups = (after.assign_cache.hits + after.assign_cache.misses)
        - (before.assign_cache.hits + before.assign_cache.misses);
    let cache_hits = after.assign_cache.hits - before.assign_cache.hits;
    out.note(format!(
        "registry: {misses} misses in {} requests ({:.1}%), cache hit ratio {:.3}",
        latencies.len(),
        100.0 * misses as f64 / latencies.len().max(1) as f64,
        cache_hits as f64 / lookups.max(1) as f64
    ));
    if rec.enabled() {
        out.set("registry.misses", misses as f64);
        out.set(
            "registry.evictions",
            (after.evictions - before.evictions) as f64,
        );
        out.set(
            "registry.hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        out.set("cache.lookups", lookups as f64);
        out.set("cache.hit_ratio", cache_hits as f64 / lookups.max(1) as f64);
        out.set("router.hop_us", 0.0);
        probes(
            ctx,
            spec,
            &fis,
            fastest(&fits[0]),
            &tenants,
            &streams,
            &tier,
            &dir,
            &mut out,
        )?;
        for line in layer_shares(&out, latencies.len()) {
            out.note(line);
        }
    }
    drop(control);
    tier.shutdown()?;
    Ok(out)
}

/// The traced run's layer probes on this workload's own inputs; the
/// staged fit refits the first building, whose fastest fit took `first_fit_s`.
#[allow(clippy::too_many_arguments)]
fn probes(
    ctx: &Ctx,
    spec: &Spec,
    fis: &FisOne,
    first_fit_s: f64,
    tenants: &[Tenant],
    streams: &Streams,
    tier: &Tier,
    dir: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    let rec = &ctx.rec;
    let first = &tenants[0];
    let anchor = first
        .site
        .train
        .bottom_anchor()
        .ok_or("no bottom-floor scan to label")?;
    probe::fit_stages(
        rec,
        fis,
        &first.site.train,
        anchor,
        first_fit_s,
        &first.model.training_labels(),
        out,
    )?;
    probe::assign_path(rec, tenants, out)?;
    probe::artifacts(rec, dir, tenants, out)?;
    let mut stream = streams.stream(CONNECTIONS);
    let frames: Vec<probe::Frame> = (0..PROBE_FRAMES)
        .map(|_| {
            let (tenant, scans) = stream.next_scans();
            probe::Frame::new(tenants, tenant, scans)
        })
        .collect();
    let router = tier.router.as_deref().map(|r| (r, spec.assign_cache));
    probe::protocol_and_daemon(rec, dir, tenants, &frames, router, out)
}

/// Where the measured phase's busy time went, by request-path layer:
/// the probes' per-call times multiplied by the phase's counts.
fn layer_shares(out: &Outcome, requests: usize) -> Vec<String> {
    let m = &out.metrics;
    let computed_scans = if m["cache.lookups"] > 0.0 {
        m["cache.lookups"] * (1.0 - m["cache.hit_ratio"])
    } else {
        (requests * BATCH) as f64
    };
    let per_request = |us: f64| requests as f64 * us.max(0.0) / 1e6;
    let layers = [
        (
            "registry.load",
            m["registry.misses"] * m["registry.load_ms"] / 1e3,
        ),
        ("core.assign", computed_scans * m["core.assign_us"] / 1e6),
        ("protocol.parse", per_request(m["protocol.parse_us"])),
        (
            "daemon (self, less parsing)",
            per_request(m["daemon.handle_self_us"] - m["protocol.parse_us"]),
        ),
        ("router.hop", per_request(m["router.hop_us"])),
    ];
    let busy: f64 = layers.iter().map(|l| l.1).sum();
    let mut lines: Vec<String> = layers
        .iter()
        .map(|(name, seconds)| {
            format!(
                "layer {name}: ~{seconds:.3} s, {:.1}% of request-path busy time",
                100.0 * seconds / busy.max(f64::MIN_POSITIVE)
            )
        })
        .collect();
    let largest = layers
        .iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map_or("none", |l| l.0);
    lines.push(format!("largest request-path layer: {largest}"));
    lines
}

/// Refits `tenant`'s building, checks that the refit gives the labels
/// of its first fit, and returns the fit's seconds.
fn refit(ctx: &Ctx, fis: &FisOne, tenant: &Tenant, out: &mut Outcome) -> Result<f64, String> {
    let train = &tenant.site.train;
    let anchor = train
        .bottom_anchor()
        .ok_or("a building has no bottom-floor scan to label")?;
    let (model, seconds) = ctx.rec.time("core.fit", None, || {
        fis.fit(tenant.name(), train.samples(), train.floors(), anchor)
    });
    let model = model.map_err(|e| format!("FisOne::fit({}): {e}", tenant.name()))?;
    out.check(
        model.training_labels() == tenant.model.training_labels(),
        || format!("a refit of {} gave different labels", tenant.name()),
    );
    Ok(seconds)
}

/// What one client connection measured in one round.
struct Driven {
    /// The round's requests on this connection; `seconds` is unset.
    window: Window,
    failures: Vec<String>,
}

/// Sends requests on one connection, each after the previous answer,
/// until the deadline; checks every answer against its reference.
fn drive(
    ctx: &Ctx,
    tenants: &[Tenant],
    stream: &mut Stream<'_>,
    client: &mut Client,
    deadline: Instant,
    parent: Option<usize>,
) -> Result<Driven, String> {
    let conn = ctx.rec.span("client.connection", parent);
    let mut driven = Driven {
        window: Window::default(),
        failures: Vec::new(),
    };
    while Instant::now() < deadline {
        let (tenant, scans) = stream.next_scans();
        let tenant = &tenants[tenant];
        let request = tenant.frame(stream.drawn, &scans);
        let span = ctx.rec.span("client.request", conn.id());
        let response = client.call(&request)?;
        let ms = span.finish() * 1e3;
        driven.window.latencies_ms.push(ms);
        match tenant.check_response(&scans, response) {
            Ok(()) => {
                driven.window.good_scans += scans.len();
                driven.window.in_slo += usize::from(ms <= SLO_MS);
            }
            Err(e) => driven.failures.push(e),
        }
    }
    conn.finish();
    Ok(driven)
}

/// The request streams: connection `c` draws from its own seeded RNG,
/// so every run of a seed sends the same requests in the same order on
/// each connection.
struct Streams {
    seed: u64,
    buildings: usize,
    skewed: bool,
    /// Held-out scans per building, hottest first (skewed only).
    hot: Vec<Vec<usize>>,
    scan_cumulative: Vec<f64>,
    block: Vec<usize>,
}

impl Streams {
    fn new(tenants: &[Tenant], spec: &Spec, seed: u64) -> Self {
        let held = tenants[0].references.len();
        let hot = tenants
            .iter()
            .enumerate()
            .map(|(b, t)| {
                let mut order: Vec<usize> = (0..t.references.len()).collect();
                order.shuffle(&mut ChaCha8Rng::seed_from_u64(
                    building_seed(seed, b) ^ 0x5ca7,
                ));
                order
            })
            .collect();
        let counts = block_counts(&zipf_weights(spec.buildings, ZIPF), BLOCK);
        let block = counts
            .iter()
            .enumerate()
            .flat_map(|(rank, &n)| std::iter::repeat_n(rank, n))
            .collect();
        Self {
            seed,
            buildings: spec.buildings,
            skewed: spec.skewed,
            hot,
            scan_cumulative: cumulative(&zipf_weights(held, ZIPF)),
            block,
        }
    }

    fn stream(&self, connection: usize) -> Stream<'_> {
        Stream {
            streams: self,
            rng: ChaCha8Rng::seed_from_u64(
                self.seed
                    .wrapping_mul(31)
                    .wrapping_add(connection as u64 + 7),
            ),
            pending: Vec::new(),
            drawn: 0,
        }
    }
}

struct Stream<'a> {
    streams: &'a Streams,
    rng: ChaCha8Rng,
    /// The rest of the current block of building draws.
    pending: Vec<usize>,
    /// Requests drawn so far; the id of the latest.
    drawn: u64,
}

impl Stream<'_> {
    /// The next request: a building and `BATCH` of its held-out scans.
    fn next_scans(&mut self) -> (usize, Vec<usize>) {
        self.drawn += 1;
        let s = self.streams;
        if !s.skewed {
            let b = self.rng.gen_range(0..s.buildings);
            let n = s.hot[b].len();
            return (b, (0..BATCH).map(|_| self.rng.gen_range(0..n)).collect());
        }
        if self.pending.is_empty() {
            self.pending = s.block.clone();
            self.pending.shuffle(&mut self.rng);
        }
        let b = self.pending.pop().expect("blocks are never empty");
        let scans = (0..BATCH)
            .map(|_| s.hot[b][draw_rank(&mut self.rng, &s.scan_cumulative)])
            .collect();
        (b, scans)
    }
}

/// One NDJSON client connection.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Client {
    fn connect(addr: &str) -> Result<Self, String> {
        let writer = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        writer.set_nodelay(true).ok();
        let reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
        Ok(Self {
            reader,
            writer,
            line: String::new(),
        })
    }

    /// Sends one request line and returns the response line.
    fn call(&mut self, request: &str) -> Result<&str, String> {
        self.writer
            .write_all(request.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .map_err(|e| format!("send: {e}"))?;
        self.line.clear();
        let n = self
            .reader
            .read_line(&mut self.line)
            .map_err(|e| format!("receive: {e}"))?;
        if n == 0 {
            return Err("the server closed the connection".to_owned());
        }
        Ok(self.line.trim_end())
    }
}

/// The serving tier: one daemon, or a router over daemon shards, each
/// serving loopback TCP from its own thread.
struct Tier {
    endpoint: String,
    daemons: Vec<Arc<Daemon>>,
    router: Option<Arc<Router>>,
    threads: Vec<JoinHandle<std::io::Result<()>>>,
}

impl Tier {
    fn start(dir: &Path, spec: &Spec) -> Result<Self, String> {
        let mut tier = Self {
            endpoint: String::new(),
            daemons: Vec::new(),
            router: None,
            threads: Vec::new(),
        };
        let mut addrs = Vec::new();
        for _ in 0..spec.shards.max(1) {
            let daemon = Arc::new(Daemon::new(
                DaemonConfig::new(
                    RegistryConfig::new(dir)
                        .max_models(spec.max_models)
                        .assign_cache(spec.assign_cache),
                )
                .threads(1)
                .pool(POOL),
            ));
            let (listener, addr) = bind()?;
            let serving = Arc::clone(&daemon);
            tier.threads
                .push(std::thread::spawn(move || serving.serve_tcp(&listener)));
            tier.daemons.push(daemon);
            addrs.push(addr);
        }
        if spec.shards == 0 {
            tier.endpoint = addrs.remove(0);
        } else {
            let router = Arc::new(Router::new(RouterConfig::new(addrs).replicas(1).pool(POOL)));
            let (listener, addr) = bind()?;
            let serving = Arc::clone(&router);
            tier.threads
                .push(std::thread::spawn(move || serving.serve_tcp(&listener)));
            tier.router = Some(router);
            tier.endpoint = addr;
        }
        Ok(tier)
    }

    /// The building id for a rank. Behind the router, the id is the
    /// first candidate the ring places on the rank's shard, so the
    /// placement is the same in every run whatever ports the shards got.
    fn name_for(&self, spec: &Spec, rank: usize) -> String {
        let Some(router) = &self.router else {
            return format!("{}-{rank}", spec.prefix);
        };
        let shard = spec.placement[rank];
        (0..)
            .map(|k| format!("{}-{rank}-{k}", spec.prefix))
            .find(|name| router.route(name).first() == Some(&shard))
            .expect("the ring places some candidate on every shard")
    }

    /// Registry counters summed over the daemons.
    fn stats(&self) -> RegistryStats {
        let mut sum = RegistryStats::default();
        for daemon in &self.daemons {
            let s = daemon.registry().stats();
            sum.hits += s.hits;
            sum.misses += s.misses;
            sum.evictions += s.evictions;
            sum.assign_cache.hits += s.assign_cache.hits;
            sum.assign_cache.misses += s.assign_cache.misses;
        }
        sum
    }

    /// Asks the front of the tier to shut down (a router passes it on to
    /// its shards) and waits for every serving thread.
    fn shutdown(self) -> Result<(), String> {
        let mut control = Client::connect(&self.endpoint)?;
        control.call(r#"{"op":"shutdown"}"#)?;
        drop(control);
        for thread in self.threads {
            thread
                .join()
                .map_err(|_| "a serving thread panicked".to_owned())?
                .map_err(|e| format!("serving: {e}"))?;
        }
        Ok(())
    }
}

fn bind() -> Result<(TcpListener, String), String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?
        .to_string();
    Ok((listener, addr))
}
