//! The daemon workload: a closed loop of small jobs through `tridentd`'s
//! TCP transport. One client on one connection submits a job, waits for
//! its result, then submits the next; the service runs one worker.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use trident_core::InjectSite;
use trident_serve::proto::FaultSpec;
use trident_serve::{
    job, serve_tcp, Client, JobResult, JobSpec, Request, Response, ServerHandle, Service,
    ServiceConfig, TenantJob,
};
use trident_sim::derive_cell_seed;

/// Memory-scale divisor of every job.
pub const SCALE: u64 = 256;
/// Sampled accesses per job.
pub const SAMPLES: usize = 8_000;

/// Salt decorrelating fault-plan seeds from run seeds.
const PLAN_SALT: u64 = 0x5EED_FA17;

/// One round of the job mix, derived from the run seed: single-tenant
/// cells over several policies, a 3-tenant co-location, the Sv48 and
/// AArch64 ladders, and audited jobs under a seeded MM fault plan.
pub fn job_mix(seed: u64) -> Vec<JobSpec> {
    let spec = |i: u64, workload: &str, policy: &str| {
        let mut s = JobSpec::new(workload, policy);
        s.scale = SCALE;
        s.samples = SAMPLES;
        s.seed = seed;
        s.cell_index = Some(i);
        s
    };
    let faulted = |mut s: JobSpec, i: u64| {
        s.audit = true;
        s.fault = Some(FaultSpec {
            seed: derive_cell_seed(seed ^ PLAN_SALT, i),
            rules: vec![
                (InjectSite::Alloc, 100),
                (InjectSite::Compaction, 100),
                (InjectSite::Promotion, 100),
            ],
        });
        s
    };
    let coloc = |mut s: JobSpec| {
        let mut redis = TenantJob::new("Redis");
        redis.weight = 2;
        s.tenants = vec![redis, TenantJob::new("XSBench")];
        s
    };
    let geometry = |mut s: JobSpec, name: &str| {
        s.geometry = Some(name.to_owned());
        s
    };
    vec![
        spec(0, "GUPS", "Trident"),
        spec(1, "Redis", "THP"),
        spec(2, "XSBench", "HawkEye"),
        spec(3, "Btree", "4KB"),
        coloc(spec(4, "GUPS", "Trident")),
        geometry(spec(5, "GUPS", "Trident"), "sv48"),
        geometry(spec(6, "Redis", "Trident"), "aarch64"),
        faulted(spec(7, "XSBench", "Trident"), 7),
        faulted(coloc(spec(8, "Redis", "Trident")), 8),
    ]
}

/// A running daemon and one connected client.
pub struct Daemon {
    service: Arc<Service>,
    server: ServerHandle,
    client: Client,
}

impl Daemon {
    /// Starts a one-worker service on an ephemeral localhost port and
    /// connects one client.
    ///
    /// # Errors
    ///
    /// The bind or connect failure.
    pub fn start() -> Result<Daemon, String> {
        let service = Arc::new(Service::start(ServiceConfig {
            workers: 1,
            queue_depth: 4,
            start_paused: false,
        }));
        let server = serve_tcp(Arc::clone(&service), "127.0.0.1:0")
            .map_err(|e| format!("cannot listen: {e}"))?;
        let addr: SocketAddr = server.addr();
        let client = Client::connect(addr).map_err(|e| format!("cannot connect: {e}"))?;
        Ok(Daemon {
            service,
            server,
            client,
        })
    }

    /// Submits `spec` and blocks for its result.
    ///
    /// # Errors
    ///
    /// A transport failure or any answer but a result.
    pub fn run(&mut self, spec: &JobSpec) -> Result<Timed, String> {
        let t0 = Instant::now();
        let id = match self.request(&Request::Submit(spec.clone()))? {
            Response::Submitted { id } => id,
            other => return Err(format!("submit answered {other:?}")),
        };
        let t1 = Instant::now();
        let result = match self.request(&Request::Result { id })? {
            Response::Result { result, .. } => result,
            other => return Err(format!("result answered {other:?}")),
        };
        let t2 = Instant::now();
        Ok(Timed {
            id,
            result,
            submit: t1 - t0,
            result_wait: t2 - t1,
        })
    }

    fn request(&mut self, request: &Request) -> Result<Response, String> {
        self.client
            .request(request)
            .map_err(|e| format!("request failed: {e}"))
    }

    /// Asks the daemon to shut down over the connection, then joins the
    /// accept loop and drains the worker.
    ///
    /// # Errors
    ///
    /// When the daemon does not acknowledge or does not stop.
    pub fn stop(mut self) -> Result<(), String> {
        match self.request(&Request::Shutdown)? {
            Response::ShuttingDown => {}
            other => return Err(format!("shutdown answered {other:?}")),
        }
        drop(self.client);
        self.server
            .join()
            .map_err(|e| format!("accept loop failed: {e}"))?;
        // The connection thread drops its handle on the service once it
        // has written the shutdown acknowledgement and returned.
        let mut service = self.service;
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match Arc::try_unwrap(service) {
                Ok(s) => {
                    s.shutdown();
                    return Ok(());
                }
                Err(shared) if Instant::now() < deadline => {
                    service = shared;
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(_) => return Err("connection thread never released the service".to_owned()),
            }
        }
    }
}

/// One job's round trip.
#[derive(Debug, Clone)]
pub struct Timed {
    /// The daemon's job id.
    pub id: u64,
    /// What the job measured.
    pub result: JobResult,
    /// Host time of the submit request.
    pub submit: Duration,
    /// Host time of the blocking result request.
    pub result_wait: Duration,
}

impl Timed {
    /// Submit-to-result time.
    pub fn round_trip(&self) -> Duration {
        self.submit + self.result_wait
    }
}

/// Host cost of encoding and decoding one job's four protocol messages
/// (submit, its answer, result request, its answer), and their size on
/// the wire with line framing.
///
/// # Errors
///
/// When a message does not decode back to itself.
pub fn codec(spec: &JobSpec, t: &Timed) -> Result<(Duration, u64), String> {
    let requests = [Request::Submit(spec.clone()), Request::Result { id: t.id }];
    let responses = [
        Response::Submitted { id: t.id },
        Response::Result {
            id: t.id,
            result: t.result.clone(),
        },
    ];
    let start = Instant::now();
    let mut bytes = 0u64;
    for r in &requests {
        let line = r.to_jsonl();
        bytes += line.len() as u64 + 1;
        if Request::parse_jsonl(&line).map_err(|e| e.to_string())? != *r {
            return Err("request does not round-trip".to_owned());
        }
    }
    for r in &responses {
        let line = r.to_jsonl();
        bytes += line.len() as u64 + 1;
        if Response::parse_jsonl(&line).map_err(|e| e.to_string())? != *r {
            return Err("response does not round-trip".to_owned());
        }
    }
    Ok((start.elapsed(), bytes))
}

/// Executes `spec` in-process on the daemon's own execution path.
///
/// # Errors
///
/// The job's failure.
pub fn execute_local(spec: &JobSpec) -> Result<(JobResult, Duration), String> {
    let t = Instant::now();
    let result = job::execute(spec)?;
    Ok((result, t.elapsed()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_remote_job_equals_the_in_process_run_and_the_daemon_stops() {
        let mix = job_mix(11);
        let mut d = Daemon::start().unwrap();
        let t = d.run(&mix[4]).unwrap();
        d.stop().unwrap();
        let (local, _) = execute_local(&mix[4]).unwrap();
        crate::checks::job(&mix[4], &t.result, &local).unwrap();
        let (_, bytes) = codec(&mix[4], &t).unwrap();
        assert!(bytes > 100);
    }

    #[test]
    fn the_mix_depends_on_the_seed_only() {
        assert_eq!(job_mix(3), job_mix(3));
        assert_ne!(job_mix(3), job_mix(4));
        for spec in job_mix(3) {
            job::resolve(&spec).expect("every job in the mix is admissible");
        }
    }
}
