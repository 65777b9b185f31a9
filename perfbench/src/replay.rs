//! The served replay: a fresh in-process `zatel serve` fleet driven by a
//! closed loop of client threads over real sockets.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use minijson::{ToJson, Value};
use zatel_serve::{HttpClient, ServeConfig, ServeReport, Server};

use crate::cells::{Cell, Op};

/// A bound server and the files it writes.
pub struct Fleet {
    server: Server,
    log: PathBuf,
}

impl Fleet {
    /// Binds a server with the program defaults, its disk tier under
    /// `dir` and its `zatel-log-v1` log in `dir/serve.log`.
    ///
    /// # Errors
    ///
    /// Returns the server's bind error.
    pub fn bind(dir: &Path) -> Result<Fleet, String> {
        let log = dir.join("serve.log");
        let server = Server::bind(ServeConfig {
            addr: "127.0.0.1:0".into(),
            cache_dir: Some(dir.join("cache").to_string_lossy().into_owned()),
            log_out: Some(log.to_string_lossy().into_owned()),
            ..ServeConfig::default()
        })?;
        Ok(Fleet { server, log })
    }
}

/// One answered request.
#[derive(Debug, Clone)]
pub struct Served {
    /// Position of the request in the replayed order.
    pub index: usize,
    /// What was asked.
    pub op: Op,
    /// The `x-zatel-request-id` it carried.
    pub request_id: String,
    /// From sending the request to reading the last byte of the reply.
    pub latency: Duration,
    /// HTTP status, or `None` when the exchange itself failed.
    pub status: Option<u16>,
    /// Response body (or the transport error).
    pub body: String,
}

/// Everything a replay observed.
#[derive(Debug)]
pub struct Replay {
    /// Answered requests, in completion order.
    pub served: Vec<Served>,
    /// From the first send to the last reply.
    pub wall: Duration,
    /// The `/metrics` scrape taken after the last reply.
    pub metrics: String,
    /// The server's drain report.
    pub report: ServeReport,
    /// The server's request log lines.
    pub log: Vec<Value>,
}

impl Replay {
    /// A counter or gauge from the `/metrics` scrape (0 when absent).
    pub fn metric(&self, name: &str) -> f64 {
        let full = format!("zatel_serve_{name}");
        self.metrics
            .lines()
            .filter_map(|l| l.split_once(' '))
            .find(|(k, _)| *k == full)
            .and_then(|(_, v)| v.trim().parse().ok())
            .unwrap_or(0.0)
    }
}

fn request_body(cells: &[Cell], op: Op) -> (&'static str, Value) {
    match op {
        Op::Predict(i) => ("/v1/predict", cells[i].request().to_json()),
        Op::Regression(i) => ("/v1/predict", cells[i].regression_request().to_json()),
        Op::Sweep(i) => ("/v1/sweep", cells[i].sweep_request().to_json()),
    }
}

/// Runs the fleet and replays `ops` from `clients` closed-loop clients:
/// each client sends its next request only after the previous reply, until
/// `ops` run out. The server is drained and joined before returning.
///
/// # Errors
///
/// Returns a message when the server cannot start, be scraped or drain.
pub fn replay(fleet: Fleet, cells: &[Cell], ops: &[Op], clients: usize) -> Result<Replay, String> {
    let Fleet { server, log } = fleet;
    let addr = server.local_addr()?;
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run());
    let client = HttpClient::new(&format!("http://{addr}"))?;

    let next = AtomicUsize::new(0);
    let served = Mutex::new(Vec::with_capacity(ops.len()));
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                let Some(&op) = ops.get(i) else { break };
                let (path, body) = request_body(cells, op);
                let request_id = format!("perfbench-{i}");
                let sent = Instant::now();
                let reply = client.post_json_with_headers(
                    path,
                    &body,
                    &[("x-zatel-request-id", &request_id)],
                );
                let latency = sent.elapsed();
                let (status, body) = match reply {
                    Ok(r) => (Some(r.status), r.body),
                    Err(e) => (None, e),
                };
                served
                    .lock()
                    .expect("a client thread panicked while recording")
                    .push(Served {
                        index: i,
                        op,
                        request_id,
                        latency,
                        status,
                        body,
                    });
            });
        }
    });
    let wall = start.elapsed();

    let metrics = client.get("/metrics").map(|r| r.body);
    handle.shutdown();
    let report = join
        .join()
        .map_err(|_| "server thread panicked".to_owned())??;
    let metrics = metrics?;
    let log = std::fs::read_to_string(&log)
        .map_err(|e| format!("reading {}: {e}", log.display()))?
        .lines()
        .filter_map(|l| Value::parse(l).ok())
        .collect();
    Ok(Replay {
        served: served
            .into_inner()
            .expect("a client thread panicked while recording"),
        wall,
        metrics,
        report,
        log,
    })
}
