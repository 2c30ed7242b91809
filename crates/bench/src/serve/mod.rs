//! The campaign server: simulation-as-a-service with a content-addressed
//! result cache.
//!
//! ROADMAP item 2 promotes the one-shot sweep machinery — the
//! [`crate::par::JobSet`] pool, the durable [`crate::manifest::Manifest`]
//! journal, crash-safe resume — into a long-lived service. Exploring the
//! design spaces the related work opens means re-running thousands of
//! (configuration × workload) cells with heavy overlap; a memoizing
//! server answers repeats from its store in microseconds and only
//! simulates genuinely new cells.
//!
//! The subsystem splits into three modules plus two binaries:
//!
//! - [`proto`] — the line-delimited JSON protocol (requests, responses,
//!   capped line framing) built on the hardened `fac_sim::obs::json`
//!   parser.
//! - [`store`] — the content-addressed on-disk result store:
//!   FNV-1a-checksummed `FACCELL` frames written atomically, corrupted
//!   entries quarantined and transparently recomputed.
//! - [`server`] — the std-only thread-per-connection front end:
//!   in-flight deduplication (N clients asking for one cell trigger one
//!   simulation), a bounded admission queue with typed
//!   [`fac_sim::SimError::Overloaded`] backpressure, per-request
//!   watchdogs via [`crate::par::RunOptions`], idle/slow-client socket
//!   timeouts, per-connection panic containment, and graceful drain.
//! - `campaign_server` / `campaign_client` — the CLI front ends.
//!
//! A cell is identified by the *fingerprints* of its machine
//! configuration and its built program (the same FNV-1a identities the
//! checkpoint frames verify on restore), so the store key changes
//! whenever either side of the cell changes — a stale entry can never be
//! served for a different experiment.

pub mod client;
pub mod proto;
pub mod server;
pub mod store;

use crate::lock;
use fac_asm::{Program, SoftwareSupport};
use fac_sim::{config_fingerprint, program_fingerprint, ConfigError, MachineConfig, SimError};
use fac_workloads::Scale;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// Where the server listens (or the client connects): `tcp:<host:port>`
/// or `unix:<path>`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A TCP socket address such as `127.0.0.1:7199` (`:0` asks the OS
    /// for an ephemeral port; the server prints the bound address).
    Tcp(String),
    /// A Unix-domain socket path.
    #[cfg(unix)]
    Unix(std::path::PathBuf),
}

impl Endpoint {
    /// Parses an endpoint string from a `--listen` / `--connect` flag.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] (a [`ConfigError::BadFlagValue`])
    /// naming the flag when the string is neither `tcp:host:port` nor
    /// `unix:path`.
    pub fn parse(flag: &'static str, value: &str) -> Result<Endpoint, SimError> {
        const EXPECTED: &str = "tcp:<host:port> or unix:<path>";
        let bad = || {
            SimError::from(ConfigError::BadFlagValue {
                flag: flag.to_string(),
                value: value.to_string(),
                expected: EXPECTED,
            })
        };
        if let Some(path) = value.strip_prefix("unix:") {
            #[cfg(unix)]
            {
                if path.is_empty() {
                    return Err(bad());
                }
                return Ok(Endpoint::Unix(std::path::PathBuf::from(path)));
            }
            #[cfg(not(unix))]
            {
                return Err(bad());
            }
        }
        let addr = value.strip_prefix("tcp:").unwrap_or(value);
        // A TCP endpoint must look like host:port with a numeric port.
        match addr.rsplit_once(':') {
            Some((host, port)) if !host.is_empty() && port.parse::<u16>().is_ok() => {
                Ok(Endpoint::Tcp(addr.to_string()))
            }
            _ => Err(bad()),
        }
    }
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Tcp(addr) => write!(f, "tcp:{addr}"),
            #[cfg(unix)]
            Endpoint::Unix(path) => write!(f, "unix:{}", path.display()),
        }
    }
}

/// One accepted (or dialed) connection: a TCP or Unix stream behind a
/// uniform blocking-I/O surface.
#[derive(Debug)]
pub enum Conn {
    /// A TCP connection.
    Tcp(TcpStream),
    /// A Unix-domain connection.
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Conn {
    /// Dials `endpoint`.
    ///
    /// # Errors
    ///
    /// [`SimError::Unreachable`] when nothing is listening — the port
    /// refuses the connection or the Unix socket path is stale/absent
    /// (`ECONNREFUSED` / `ENOENT`); [`SimError::Io`] naming the endpoint
    /// for any other failure.
    pub fn dial(endpoint: &Endpoint) -> Result<Conn, SimError> {
        let label = endpoint.to_string();
        let map = |e: std::io::Error| match e.kind() {
            std::io::ErrorKind::ConnectionRefused | std::io::ErrorKind::NotFound => {
                SimError::Unreachable { endpoint: label.clone(), reason: e.to_string() }
            }
            _ => SimError::io(&label, e),
        };
        match endpoint {
            Endpoint::Tcp(addr) => TcpStream::connect(addr).map(Conn::Tcp).map_err(map),
            #[cfg(unix)]
            Endpoint::Unix(path) => UnixStream::connect(path).map(Conn::Unix).map_err(map),
        }
    }

    /// A second handle to the same socket (independent read/write
    /// positions; the chaos proxy pumps each direction from its own
    /// thread).
    pub(crate) fn try_clone(&self) -> std::io::Result<Conn> {
        match self {
            Conn::Tcp(s) => s.try_clone().map(Conn::Tcp),
            #[cfg(unix)]
            Conn::Unix(s) => s.try_clone().map(Conn::Unix),
        }
    }

    /// Tears the connection down in both directions — the chaos proxy's
    /// "reset" and "truncate" faults end with this.
    pub(crate) fn shutdown(&self) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
            #[cfg(unix)]
            Conn::Unix(s) => s.shutdown(std::net::Shutdown::Both),
        }
    }

    /// Sets the read timeout (used both as the server's shutdown-poll
    /// granularity and the client's response deadline).
    pub(crate) fn set_read_timeout(&self, dur: Option<Duration>) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(dur),
            #[cfg(unix)]
            Conn::Unix(s) => s.set_read_timeout(dur),
        }
    }

    /// Sets the write timeout (a slow or stalled client must not pin a
    /// server thread forever).
    pub(crate) fn set_write_timeout(&self, dur: Option<Duration>) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_write_timeout(dur),
            #[cfg(unix)]
            Conn::Unix(s) => s.set_write_timeout(dur),
        }
    }

    /// The peer's address for the access log: `host:port` for TCP,
    /// `"unix"` for Unix-domain peers (which are usually unnamed).
    pub fn peer(&self) -> String {
        match self {
            Conn::Tcp(s) => {
                s.peer_addr().map_or_else(|_| "tcp:?".to_string(), |a| a.to_string())
            }
            #[cfg(unix)]
            Conn::Unix(_) => "unix".to_string(),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Conn::Unix(s) => s.flush(),
        }
    }
}

/// The bound listening socket behind [`server::Server`].
#[derive(Debug)]
pub(crate) enum Listener {
    /// A TCP listener.
    Tcp(TcpListener),
    /// A Unix-domain listener (plus its socket path, removed on drop).
    #[cfg(unix)]
    Unix(UnixListener, std::path::PathBuf),
}

impl Listener {
    pub(crate) fn bind(endpoint: &Endpoint) -> Result<Listener, SimError> {
        let label = endpoint.to_string();
        match endpoint {
            Endpoint::Tcp(addr) => {
                TcpListener::bind(addr).map(Listener::Tcp).map_err(|e| SimError::io(&label, e))
            }
            #[cfg(unix)]
            Endpoint::Unix(path) => {
                // The server owns its socket path: a stale socket left by
                // a kill -9 would otherwise make every restart fail with
                // AddrInUse — exactly the restart the crash-recovery
                // story depends on.
                if path.exists() {
                    std::fs::remove_file(path).map_err(|e| SimError::io(&label, e))?;
                }
                UnixListener::bind(path)
                    .map(|l| Listener::Unix(l, path.clone()))
                    .map_err(|e| SimError::io(&label, e))
            }
        }
    }

    /// The endpoint actually bound (TCP resolves `:0` to the real port).
    pub(crate) fn endpoint(&self) -> Endpoint {
        match self {
            Listener::Tcp(l) => Endpoint::Tcp(
                l.local_addr().map_or_else(|_| "?".to_string(), |a| a.to_string()),
            ),
            #[cfg(unix)]
            Listener::Unix(_, path) => Endpoint::Unix(path.clone()),
        }
    }

    pub(crate) fn set_nonblocking(&self, nb: bool) -> std::io::Result<()> {
        match self {
            Listener::Tcp(l) => l.set_nonblocking(nb),
            #[cfg(unix)]
            Listener::Unix(l, _) => l.set_nonblocking(nb),
        }
    }

    pub(crate) fn accept(&self) -> std::io::Result<Conn> {
        match self {
            Listener::Tcp(l) => l.accept().map(|(s, _)| Conn::Tcp(s)),
            #[cfg(unix)]
            Listener::Unix(l, _) => l.accept().map(|(s, _)| Conn::Unix(s)),
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let Listener::Unix(_, path) = self {
            std::fs::remove_file(path).ok();
        }
    }
}

/// The named machine configurations a cell request may ask for. Both the
/// server and the client resolve names through this one catalog, so the
/// fingerprints they compute agree by construction.
pub fn config_by_name(name: &str) -> Option<MachineConfig> {
    match name {
        "baseline" => Some(MachineConfig::paper_baseline()),
        "fac" => Some(MachineConfig::paper_baseline().with_fac()),
        _ => None,
    }
}

/// The configuration names [`config_by_name`] accepts, for error messages
/// and the client sweep.
pub const CONFIG_NAMES: &[&str] = &["baseline", "fac"];

/// [`config_by_name`] plus the configuration's fingerprint, computed once
/// per process for each [`CONFIG_NAMES`] entry.
pub fn named_config(name: &str) -> Option<(MachineConfig, u64)> {
    static CATALOG: OnceLock<Vec<(MachineConfig, u64)>> = OnceLock::new();
    let index = CONFIG_NAMES.iter().position(|n| *n == name)?;
    let catalog = CATALOG.get_or_init(|| {
        CONFIG_NAMES
            .iter()
            .map(|n| {
                let config = config_by_name(n).expect("catalog names resolve");
                (config, config_fingerprint(&config))
            })
            .collect()
    });
    Some(catalog[index])
}

/// A built program and its [`program_fingerprint`].
pub type BuiltProgram = (Arc<Program>, u64);

/// The program the workload named `workload` builds with software support
/// `sw` at `scale`, and its fingerprint. Builds are deterministic, so each
/// is built and fingerprinted once per process and then shared: the
/// server's cell path and [`client::cell_request`] both read this memo,
/// so a cache hit neither builds nor hashes a program. `None` for an
/// unknown workload.
pub fn built_program(workload: &str, sw: bool, scale: Scale) -> Option<BuiltProgram> {
    static BUILT: OnceLock<Mutex<HashMap<String, BuiltProgram>>> = OnceLock::new();
    let key = format!("{workload}:{}:{}", u8::from(sw), scale_name(scale));
    let mut built = lock(BUILT.get_or_init(Mutex::default));
    if let Some((program, fp)) = built.get(&key) {
        return Some((Arc::clone(program), *fp));
    }
    let program = fac_workloads::find(workload)?.build(&sw_support(sw), scale);
    let fp = program_fingerprint(&program);
    let entry = (Arc::new(program), fp);
    built.insert(key, entry.clone());
    Some(entry)
}

/// The fingerprint of the whole configuration catalog: the FNV-1a chain
/// of every named configuration's fingerprint, in catalog order. Two
/// builds that would store incomparable cells have different catalog
/// fingerprints, so the `build_version` the stats report advertises
/// changes with them.
pub fn catalog_fingerprint() -> u64 {
    use fac_core::snap::{fnv1a, FNV_OFFSET};
    let mut fp = FNV_OFFSET;
    for name in CONFIG_NAMES {
        let (_, config_fp) = named_config(name).expect("catalog names resolve");
        fp = fnv1a(fp, name.as_bytes());
        fp = fnv1a(fp, &config_fp.to_le_bytes());
    }
    fp
}

/// Renders a scale for the wire (`"smoke"` / `"paper"`).
pub fn scale_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Smoke => "smoke",
        Scale::Paper => "paper",
    }
}

/// Parses a wire scale name.
pub fn scale_by_name(name: &str) -> Option<Scale> {
    match name {
        "smoke" => Some(Scale::Smoke),
        "paper" => Some(Scale::Paper),
        _ => None,
    }
}

/// The canonical identity of a cell: every request field that selects
/// what is simulated, in one deterministic rendering. The store key is
/// the FNV-1a digest of this string chained with both fingerprints.
pub fn cell_identity(workload: &str, sw: bool, scale: Scale, config: &str) -> String {
    format!(
        "cell:{workload}:sw={}:scale={}:cfg={config}",
        u8::from(sw),
        scale_name(scale)
    )
}

/// Builds the §4-software-support flag for a cell request.
pub fn sw_support(sw: bool) -> SoftwareSupport {
    if sw {
        SoftwareSupport::on()
    } else {
        SoftwareSupport::off()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_parse_accepts_tcp_and_unix() {
        assert_eq!(
            Endpoint::parse("--listen", "127.0.0.1:7199").unwrap(),
            Endpoint::Tcp("127.0.0.1:7199".to_string())
        );
        assert_eq!(
            Endpoint::parse("--listen", "tcp:127.0.0.1:0").unwrap(),
            Endpoint::Tcp("127.0.0.1:0".to_string())
        );
        #[cfg(unix)]
        assert_eq!(
            Endpoint::parse("--connect", "unix:/tmp/fac.sock").unwrap(),
            Endpoint::Unix(std::path::PathBuf::from("/tmp/fac.sock"))
        );
    }

    #[test]
    fn endpoint_parse_rejects_malformed_values() {
        for bad in ["", "localhost", "tcp:", "tcp:nohost", ":-1", "127.0.0.1:notaport", "unix:"] {
            let err = Endpoint::parse("--listen", bad).unwrap_err();
            assert!(
                matches!(err, SimError::InvalidConfig(ConfigError::BadFlagValue { .. })),
                "{bad:?} got {err}"
            );
        }
    }

    #[test]
    fn cell_identity_is_canonical() {
        assert_eq!(
            cell_identity("compress", true, Scale::Smoke, "fac"),
            "cell:compress:sw=1:scale=smoke:cfg=fac"
        );
        // Every selector changes the identity.
        let base = cell_identity("compress", true, Scale::Smoke, "fac");
        for other in [
            cell_identity("espresso", true, Scale::Smoke, "fac"),
            cell_identity("compress", false, Scale::Smoke, "fac"),
            cell_identity("compress", true, Scale::Paper, "fac"),
            cell_identity("compress", true, Scale::Smoke, "baseline"),
        ] {
            assert_ne!(base, other);
        }
    }

    /// Dialing an endpoint nothing listens on is a typed
    /// [`SimError::Unreachable`], not a raw I/O error — "the server is
    /// not there" must be actionable for clients and operators.
    #[test]
    fn dialing_nothing_is_typed_unreachable() {
        let parked = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = parked.local_addr().unwrap().to_string();
        drop(parked);
        let err = Conn::dial(&Endpoint::Tcp(addr)).unwrap_err();
        assert!(matches!(err, SimError::Unreachable { .. }), "got {err}");

        #[cfg(unix)]
        {
            let stale = std::env::temp_dir()
                .join(format!("fac_stale_sock_{}.sock", std::process::id()));
            std::fs::remove_file(&stale).ok();
            let err = Conn::dial(&Endpoint::Unix(stale)).unwrap_err();
            assert!(matches!(err, SimError::Unreachable { .. }), "got {err}");
        }
    }

    #[test]
    fn config_catalog_round_trips() {
        for name in CONFIG_NAMES {
            assert!(config_by_name(name).is_some(), "{name}");
        }
        assert!(config_by_name("warp-drive").is_none());
        assert!(named_config("warp-drive").is_none());
        for name in CONFIG_NAMES {
            let (config, fp) = named_config(name).unwrap();
            assert_eq!(Some(config), config_by_name(name), "{name}");
            assert_eq!(fp, config_fingerprint(&config), "{name}");
        }
        assert_eq!(scale_by_name("smoke"), Some(Scale::Smoke));
        assert_eq!(scale_by_name("paper"), Some(Scale::Paper));
        assert_eq!(scale_by_name("Smoke"), None);
    }
}
