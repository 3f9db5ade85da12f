//! Where a result came from: the host, the toolchain, the revision and
//! the inputs. Stamped when the result is written.

use std::process::Command;
use zbp_support::json::Json;

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// `target-cpu` from the build's `rustflags` in `.cargo/config.toml`.
fn target_cpu() -> Option<String> {
    let config = std::fs::read_to_string(".cargo/config.toml").ok()?;
    let at = config.find("target-cpu=")? + "target-cpu=".len();
    Some(
        config[at..]
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '-' || *c == '_')
            .collect(),
    )
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines().find_map(|l| {
        l.strip_prefix("model name")?.split_once(':').map(|(_, m)| m.trim().to_string())
    })
}

fn text(value: Option<String>) -> Json {
    value.map_or(Json::Null, Json::Str)
}

/// The provenance block printed with every result.
pub fn block(workload: &str, seed: u64, trace: bool, lens: &[(&str, u64)]) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    // `None` outside a git checkout.
    let dirty = command_line("git", &["status", "--porcelain"]).map(|s| !s.is_empty());
    let stamped = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    Json::Obj(vec![
        ("workload".into(), Json::Str(workload.into())),
        ("seed".into(), Json::Num(seed as f64)),
        ("trace".into(), Json::Bool(trace)),
        (
            "trace_lens".into(),
            Json::Obj(lens.iter().map(|(k, v)| (k.to_string(), Json::Num(*v as f64))).collect()),
        ),
        ("nproc".into(), Json::Num(nproc as f64)),
        ("cpu_model".into(), text(cpu_model())),
        ("rustc".into(), text(command_line("rustc", &["--version"]))),
        ("target_cpu".into(), text(target_cpu())),
        ("git_revision".into(), text(command_line("git", &["rev-parse", "HEAD"]))),
        ("git_dirty".into(), dirty.map_or(Json::Null, Json::Bool)),
        ("stamped_unix".into(), Json::Num(stamped as f64)),
    ])
}
