//! `triplec-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the check verdicts, one line per metric, a detail object and,
//! last, the result object. Exits 0 when the run completed (whether or
//! not its outputs checked out), 2 on bad arguments, 3 when the stall
//! watchdog ended a run that stopped making progress.

use std::sync::Arc;
use std::time::Duration;
use triplec_perfbench::host::{host_cores, revision};
use triplec_perfbench::watchdog::{Progress, Watchdog};
use triplec_perfbench::Workload;

/// Time without progress after which a run counts as stalled.
const STALL_TIMEOUT: Duration = Duration::from_secs(15);

struct Args {
    workload: Workload,
    name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut name, mut seed, mut trace) = (None, 1, false);
    let mut seconds: f64 = 10.0;
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => name = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let name = name.ok_or("--workload is required")?;
    let workload = Workload::named(&name).ok_or(format!("unknown workload {name}"))?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        name,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("triplec-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let progress = Arc::new(Progress::default());
    let name = args.name.clone();
    let dog = Watchdog::start(Arc::clone(&progress), STALL_TIMEOUT, move |p| {
        eprintln!(
            "triplec-perfbench: {name} made no progress for {}s; {} of {} offered frames unfinished",
            STALL_TIMEOUT.as_secs(),
            p.unfinished(),
            p.offered()
        );
        println!(
            "{{\"correct\": false, \"attempted\": {}, \"failed\": {}, \"metrics\": {{}}}}",
            p.offered().max(1),
            p.unfinished()
        );
        std::process::exit(3);
    });
    let result = args
        .workload
        .run(args.seed, args.seconds, args.trace, &progress);
    dog.stop();
    for line in result.render(host_cores(), &revision()) {
        println!("{line}");
    }
}
