//! Zero-dependency per-rank HTTP introspection endpoint.
//!
//! A deliberately tiny hand-rolled HTTP/1.0 server over
//! `std::net::TcpListener` — no external crates, no keep-alive, no
//! routing table beyond a match. One accept thread serves requests
//! serially; an introspection endpoint hit by a human with `curl` or a
//! scraper every few seconds does not need more, and keeping it
//! single-threaded means a misbehaving client can at worst delay the
//! next scrape, never touch the runtime's hot path.
//!
//! Built-in routes (all `GET`):
//!
//! | path               | body                              | status |
//! |--------------------|-----------------------------------|--------|
//! | `/metrics`         | Prometheus text exposition        | 200    |
//! | `/metrics.json`    | `MetricsSnapshot` JSON            | 200    |
//! | `/timeseries.json` | `TimeSeriesRecorder` JSON         | 200    |
//! | `/trace`           | Chrome trace JSON (non-draining)  | 200    |
//! | `/healthz`         | liveness + peer-health verdict    | 200/503|
//! | `/`                | plain-text index of the above     | 200    |
//!
//! Additional GET/POST routes (e.g. `ttg-serve`'s submit/poll/result
//! API) plug in through [`HttpRoutes::dynamic`], which sees the parsed
//! [`HttpRequest`] — including a request body read per `Content-Length`
//! (capped; oversize requests get 413). Query strings are tolerated on
//! every path; methods other than GET/POST get 405.
//!
//! The route bodies are opaque closures, so the server knows no
//! runtime; [`crate::live`] wires them to the real runtime state.
//!
//! [`http_request`] is the matching client — the only raw-`TcpStream`
//! HTTP client in the workspace; the cluster aggregator's scrapes and
//! every endpoint test go through it.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// What `/healthz` reports: a boolean verdict plus a JSON body
/// explaining it (peer-death reason, aborted epoch, ...).
pub struct HealthVerdict {
    /// `true` → 200, `false` → 503.
    pub healthy: bool,
    /// JSON body served either way.
    pub body: String,
}

/// A parsed incoming request, as seen by [`HttpRoutes::dynamic`].
#[derive(Debug)]
pub struct HttpRequest {
    /// `GET` or `POST` (anything else is rejected before dispatch).
    pub method: String,
    /// The path with any query string stripped (`/poll/7`, not
    /// `/poll/7?x=1`).
    pub path: String,
    /// The query string, if any (without the `?`).
    pub query: Option<String>,
    /// The request body (empty for GET).
    pub body: Vec<u8>,
}

impl HttpRequest {
    /// The body as UTF-8, if valid.
    pub fn body_str(&self) -> Option<&str> {
        std::str::from_utf8(&self.body).ok()
    }
}

/// A response produced by a dynamic route.
#[derive(Debug)]
pub struct HttpResponse {
    /// HTTP status code (reason phrase is filled in by the server).
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: String,
}

impl HttpResponse {
    /// A JSON response with the given status.
    pub fn json(status: u16, body: impl Into<String>) -> Self {
        HttpResponse {
            status,
            content_type: "application/json",
            body: body.into(),
        }
    }

    /// A plain-text response with the given status.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        HttpResponse {
            status,
            content_type: "text/plain",
            body: body.into(),
        }
    }
}

/// Handler for routes beyond the built-in set: returns `Some(response)`
/// to claim the request, `None` to fall through to the built-ins.
pub type DynamicRoute = Box<dyn Fn(&HttpRequest) -> Option<HttpResponse> + Send + Sync>;

/// Content producers for each route. Closures run on the accept
/// thread, per request — they should be cheap reads (snapshot copies),
/// never blocking operations against the runtime.
pub struct HttpRoutes {
    /// `/metrics`: Prometheus text exposition.
    pub metrics_prometheus: Box<dyn Fn() -> String + Send + Sync>,
    /// `/metrics.json`.
    pub metrics_json: Box<dyn Fn() -> String + Send + Sync>,
    /// `/timeseries.json`.
    pub timeseries_json: Box<dyn Fn() -> String + Send + Sync>,
    /// `/trace`: non-draining Chrome trace snapshot.
    pub trace_json: Box<dyn Fn() -> String + Send + Sync>,
    /// `/healthz`.
    pub healthz: Box<dyn Fn() -> HealthVerdict + Send + Sync>,
    /// Extra GET/POST routes consulted before the built-ins (`None` to
    /// serve only the built-in set).
    pub dynamic: Option<DynamicRoute>,
}

/// The running server. Binds on construction, serves until dropped
/// (drop unblocks the accept loop and joins the thread).
pub struct ObsHttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    requests: Arc<AtomicU64>,
    handle: Option<thread::JoinHandle<()>>,
}

/// Per-connection I/O deadline so one stalled client cannot wedge the
/// accept loop forever.
const CLIENT_IO_TIMEOUT: Duration = Duration::from_secs(2);

impl ObsHttpServer {
    /// Binds `127.0.0.1:port` (`0` picks an ephemeral port — read it
    /// back with [`ObsHttpServer::port`]) and starts serving.
    pub fn serve(port: u16, routes: HttpRoutes) -> std::io::Result<ObsHttpServer> {
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let requests = Arc::new(AtomicU64::new(0));
        let stop2 = Arc::clone(&stop);
        let requests2 = Arc::clone(&requests);
        let handle = thread::Builder::new()
            .name("ttg-obs-http".into())
            .spawn(move || {
                for conn in listener.incoming() {
                    if stop2.load(Ordering::Acquire) {
                        return;
                    }
                    let Ok(stream) = conn else { continue };
                    requests2.fetch_add(1, Ordering::Relaxed);
                    let _ = handle_connection(stream, &routes);
                }
            })
            .expect("spawn obs http thread");
        Ok(ObsHttpServer {
            addr,
            stop,
            requests,
            handle: Some(handle),
        })
    }

    /// The port actually bound (useful with `port = 0`).
    pub fn port(&self) -> u16 {
        self.addr.port()
    }

    /// Local address serving requests.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections accepted so far.
    pub fn requests_served(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }
}

impl Drop for ObsHttpServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        // `accept` has no timeout; a throwaway self-connect wakes the
        // loop so it observes the stop flag and exits.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Maximum accepted header block; larger requests are cut off.
const MAX_HEAD: usize = 8192;
/// Maximum accepted request body (submit payloads are small JSON).
const MAX_BODY: usize = 1 << 20;

/// Reason phrases for the status codes this server emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        410 => "Gone",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Reads the request head (through `\r\n\r\n`) plus any body bytes that
/// arrived with it. Returns the buffer and the head's end offset.
fn read_head(stream: &mut TcpStream) -> (Vec<u8>, Option<usize>) {
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    let mut scanned = 0usize;
    loop {
        // Only the new bytes need scanning, plus the last 3 of the
        // previous fill: the terminator may straddle two reads.
        let from = scanned.saturating_sub(3);
        if let Some(pos) = find_head_end(&buf[from..]) {
            return (buf, Some(from + pos));
        }
        scanned = buf.len();
        if buf.len() > MAX_HEAD {
            return (buf, None);
        }
        match stream.read(&mut chunk) {
            Ok(n) if n > 0 => buf.extend_from_slice(&chunk[..n]),
            _ => return (buf, None),
        }
    }
}

/// Offset just past the `\r\n\r\n` header terminator, if present.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4)
}

/// The `Content-Length` header value, if present and well-formed.
fn content_length(head: &str) -> Option<usize> {
    head.lines().skip(1).find_map(|line| {
        let (name, value) = line.split_once(':')?;
        name.trim()
            .eq_ignore_ascii_case("content-length")
            .then(|| value.trim().parse().ok())?
    })
}

fn handle_connection(mut stream: TcpStream, routes: &HttpRoutes) -> std::io::Result<()> {
    stream.set_read_timeout(Some(CLIENT_IO_TIMEOUT))?;
    stream.set_write_timeout(Some(CLIENT_IO_TIMEOUT))?;
    let (mut buf, head_end) = read_head(&mut stream);
    let Some(head_end) = head_end else {
        return respond(&mut stream, HttpResponse::text(400, "malformed request\n"));
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    let request_line = head.lines().next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("").to_string();
    let raw_path = parts.next().unwrap_or("");
    // Tolerate query strings (`/metrics?x=1`) — scrapers add them.
    let (path, query) = match raw_path.split_once('?') {
        Some((p, q)) => (p.to_string(), Some(q.to_string())),
        None => (raw_path.to_string(), None),
    };

    if method != "GET" && method != "POST" {
        return respond(
            &mut stream,
            HttpResponse::text(405, "only GET and POST are supported\n"),
        );
    }

    // Read the body per Content-Length (POST submit payloads).
    let want = content_length(&head).unwrap_or(0);
    if want > MAX_BODY {
        return respond(&mut stream, HttpResponse::text(413, "body too large\n"));
    }
    let mut chunk = [0u8; 512];
    while buf.len() < head_end + want {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(_) => break,
        }
    }
    if buf.len() < head_end + want {
        // The peer closed (or stalled past the deadline) before sending
        // what it announced: a truncated body must not reach a route.
        return respond(&mut stream, HttpResponse::text(400, "truncated body\n"));
    }
    let body = buf[head_end..head_end + want].to_vec();

    let request = HttpRequest {
        method,
        path,
        query,
        body,
    };

    if let Some(dynamic) = routes.dynamic.as_ref() {
        if let Some(resp) = dynamic(&request) {
            return respond(&mut stream, resp);
        }
    }

    let resp = if request.method != "GET" {
        // The built-in routes are read-only; a POST that no dynamic
        // route claimed is a method error, not a missing resource.
        HttpResponse::text(405, "method not allowed\n")
    } else {
        match request.path.as_str() {
            "/metrics" => HttpResponse {
                status: 200,
                content_type: "text/plain; version=0.0.4",
                body: (routes.metrics_prometheus)(),
            },
            "/metrics.json" => HttpResponse::json(200, (routes.metrics_json)()),
            "/timeseries.json" => HttpResponse::json(200, (routes.timeseries_json)()),
            "/trace" => HttpResponse::json(200, (routes.trace_json)()),
            "/healthz" => {
                let v = (routes.healthz)();
                HttpResponse::json(if v.healthy { 200 } else { 503 }, v.body)
            }
            "/" => HttpResponse::text(
                200,
                "ttg-obs introspection endpoint\n\
                 GET /metrics          Prometheus text\n\
                 GET /metrics.json     metrics snapshot\n\
                 GET /timeseries.json  sampled time series\n\
                 GET /trace            live Chrome trace snapshot\n\
                 GET /healthz          liveness + peer health (200/503)\n",
            ),
            _ => HttpResponse::text(404, "not found\n"),
        }
    };
    respond(&mut stream, resp)
}

fn respond(stream: &mut TcpStream, resp: HttpResponse) -> std::io::Result<()> {
    let header = format!(
        "HTTP/1.0 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        resp.status,
        reason(resp.status),
        resp.content_type,
        resp.body.len()
    );
    stream.write_all(header.as_bytes())?;
    stream.write_all(resp.body.as_bytes())?;
    let _ = stream.shutdown(Shutdown::Both);
    Ok(())
}

/// Minimal HTTP/1.0 client: one request to `target` (`host:port`), with
/// a `Content-Length` body when `body` is given; `timeout` bounds the
/// connect, the write and the read. Returns `(status, body)`, or `None`
/// on any I/O or parse failure (an unreachable peer).
pub fn http_request(
    target: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
    timeout: Duration,
) -> Option<(u16, String)> {
    let addr = target.to_socket_addrs().ok()?.next()?;
    let mut s = TcpStream::connect_timeout(&addr, timeout).ok()?;
    s.set_read_timeout(Some(timeout)).ok()?;
    s.set_write_timeout(Some(timeout)).ok()?;
    let length = body.map(|b| format!("Content-Length: {}\r\n", b.len()));
    write!(
        s,
        "{method} {path} HTTP/1.0\r\nHost: {target}\r\n{}Connection: close\r\n\r\n{}",
        length.unwrap_or_default(),
        body.unwrap_or("")
    )
    .ok()?;
    let mut resp = String::new();
    s.read_to_string(&mut resp).ok()?;
    let (head, body) = resp.split_once("\r\n\r\n")?;
    let status: u16 = head.split_whitespace().nth(1)?.parse().ok()?;
    Some((status, body.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    fn request(port: u16, method: &str, path: &str, body: Option<&str>) -> (u16, String) {
        let target = format!("127.0.0.1:{port}");
        http_request(&target, method, path, body, CLIENT_IO_TIMEOUT).expect("request")
    }

    fn get(port: u16, path: &str) -> (String, String) {
        let (status, body) = request(port, "GET", path, None);
        (status.to_string(), body)
    }

    fn test_routes(unhealthy: Arc<AtomicBool>) -> HttpRoutes {
        HttpRoutes {
            metrics_prometheus: Box::new(|| "# TYPE ttg_x counter\nttg_x 1\n".to_string()),
            metrics_json: Box::new(|| "{\"counters\":{}}".to_string()),
            timeseries_json: Box::new(|| "{\"points\":[]}".to_string()),
            trace_json: Box::new(|| "{\"traceEvents\":[]}".to_string()),
            healthz: Box::new(move || {
                let bad = unhealthy.load(Ordering::Relaxed);
                HealthVerdict {
                    healthy: !bad,
                    body: format!("{{\"healthy\":{}}}", !bad),
                }
            }),
            dynamic: None,
        }
    }

    #[test]
    fn serves_all_routes() {
        let unhealthy = Arc::new(AtomicBool::new(false));
        let srv = ObsHttpServer::serve(0, test_routes(Arc::clone(&unhealthy))).unwrap();
        let port = srv.port();

        let (status, body) = get(port, "/metrics");
        assert!(status.contains("200"), "{status}");
        assert!(body.contains("ttg_x 1"));

        let (status, body) = get(port, "/metrics.json");
        assert!(status.contains("200"));
        assert!(body.contains("counters"));

        let (status, body) = get(port, "/timeseries.json");
        assert!(status.contains("200"));
        assert!(body.contains("points"));

        let (status, body) = get(port, "/trace");
        assert!(status.contains("200"));
        assert!(body.contains("traceEvents"));

        let (status, _) = get(port, "/nope");
        assert!(status.contains("404"), "{status}");

        let (status, _) = get(port, "/");
        assert!(status.contains("200"));
        assert!(srv.requests_served() >= 6);
    }

    #[test]
    fn healthz_flips_to_503() {
        let unhealthy = Arc::new(AtomicBool::new(false));
        let srv = ObsHttpServer::serve(0, test_routes(Arc::clone(&unhealthy))).unwrap();
        let (status, body) = get(srv.port(), "/healthz");
        assert!(status.contains("200"), "{status}");
        assert!(body.contains("true"));
        unhealthy.store(true, Ordering::Relaxed);
        let (status, body) = get(srv.port(), "/healthz");
        assert!(status.contains("503"), "{status}");
        assert!(body.contains("false"));
    }

    #[test]
    fn query_strings_and_bad_methods() {
        let unhealthy = Arc::new(AtomicBool::new(false));
        let srv = ObsHttpServer::serve(0, test_routes(unhealthy)).unwrap();
        let (status, _) = get(srv.port(), "/metrics?format=prometheus");
        assert!(status.contains("200"), "{status}");
        // POST is a supported method now, but the built-in routes are
        // read-only: an unclaimed POST is still 405.
        assert_eq!(request(srv.port(), "POST", "/metrics", None).0, 405);
        // Methods beyond GET/POST are rejected outright.
        for method in ["PUT", "DELETE", "HEAD"] {
            assert_eq!(request(srv.port(), method, "/metrics", None).0, 405);
        }
    }

    #[test]
    fn dynamic_routes_handle_post_bodies() {
        let unhealthy = Arc::new(AtomicBool::new(false));
        let mut routes = test_routes(unhealthy);
        routes.dynamic = Some(Box::new(|req: &HttpRequest| match req.path.as_str() {
            "/echo" => Some(HttpResponse::json(
                200,
                format!(
                    "{{\"method\":\"{}\",\"len\":{},\"body\":\"{}\"}}",
                    req.method,
                    req.body.len(),
                    req.body_str().unwrap_or("")
                ),
            )),
            "/teapot" => Some(HttpResponse::text(400, "short and stout\n")),
            _ => None,
        }));
        let srv = ObsHttpServer::serve(0, routes).unwrap();

        // POST with a body, delivered intact.
        let (status, resp) = request(srv.port(), "POST", "/echo?src=test", Some("hello=world"));
        assert_eq!(status, 200, "{resp}");
        assert!(resp.contains("\"method\":\"POST\""), "{resp}");
        assert!(resp.contains("\"body\":\"hello=world\""), "{resp}");

        // Dynamic routes can claim GETs and pick their own status.
        let (status, body) = get(srv.port(), "/teapot");
        assert!(status.contains("400"), "{status}");
        assert!(body.contains("stout"));

        // Unclaimed paths still fall through to the built-ins.
        let (status, _) = get(srv.port(), "/metrics");
        assert!(status.contains("200"), "{status}");

        // Oversize bodies are refused before dispatch, and so is a body
        // shorter than its announced length (peer closed early): the
        // route must never see a truncated payload. Raw streams — the
        // client cannot lie about its own Content-Length.
        for (announced, sent, expect) in [("99999999", "", "413"), ("64", "ten bytes!", "400")] {
            let mut s = TcpStream::connect(("127.0.0.1", srv.port())).unwrap();
            write!(
                s,
                "POST /echo HTTP/1.0\r\nContent-Length: {announced}\r\n\r\n{sent}"
            )
            .unwrap();
            s.shutdown(Shutdown::Write).unwrap();
            let mut resp = String::new();
            s.read_to_string(&mut resp).unwrap();
            assert!(resp.contains(expect), "{announced}/{sent}: {resp}");
            assert!(!resp.contains("\"method\""), "reached the route: {resp}");
        }
    }

    #[test]
    fn head_terminator_split_across_reads_is_found() {
        // The scan resumes 3 bytes before the previous fill's end, so a
        // `\r\n\r\n` cut anywhere by the 512-byte read size (or by the
        // sender's packets) still terminates the head.
        let unhealthy = Arc::new(AtomicBool::new(false));
        let srv = ObsHttpServer::serve(0, test_routes(unhealthy)).unwrap();
        // Request line (23 bytes) + "X-Pad: " put the terminator at
        // offset 30 + pad: 476..486 walks it across the 512-byte edge.
        for pad in 476..486 {
            let mut s = TcpStream::connect(("127.0.0.1", srv.port())).unwrap();
            let filler = "x".repeat(pad);
            write!(s, "GET /metrics HTTP/1.0\r\nX-Pad: {filler}\r\n\r\n").unwrap();
            let mut resp = String::new();
            s.read_to_string(&mut resp).unwrap();
            assert!(resp.contains("200"), "pad {pad}: {resp}");
        }
    }

    #[test]
    fn drop_joins_and_releases_port() {
        let unhealthy = Arc::new(AtomicBool::new(false));
        let srv = ObsHttpServer::serve(0, test_routes(unhealthy)).unwrap();
        let port = srv.port();
        drop(srv);
        // The accept thread is gone; a fresh bind on the same port must
        // succeed (the listener socket was closed, not leaked).
        let _rebound = TcpListener::bind(("127.0.0.1", port)).unwrap();
    }
}
