//! `lrc-check` CLI: exhaustively model-check the protocols on bounded
//! scenarios, or replay a printed counterexample schedule.

#![forbid(unsafe_code)]

use lrc_check::explore::{replay_schedule, BuildOpts, Counterexample, Limits};
use lrc_check::{check_and_minimize, parse_fault, parse_protocol, report, scenario};
use lrc_core::Fault;
use lrc_sim::Protocol;
use std::process::ExitCode;
use std::str::FromStr;

const USAGE: &str = "\
lrc-check — bounded model checker for the lazy-release-consistency protocols

USAGE:
    lrc-check [OPTIONS]

OPTIONS:
    --scenario NAME     scenario to check, or 'all' (default: all; see --list)
    --protocol NAME     sc | eager | lazy | lazy-ext | all (default: all)
    --fault NAME        none | skip-invalidate | skip-write-notice |
                        skip-lock-reclaim (default: none)
    --nack-nth N        answer the N-th busy-directory encounter with a
                        BUSY-NACK instead of parking, and explore the retry
                        interleavings (fires only under the eager protocols,
                        which park at a busy home); counterexamples are
                        minimized and replayable, and it combines with
                        --races and --crash-nth
    --crash-nth N       crash-stop a node after exactly N handled events
                        (instantaneous detection) and explore the recovery
                        interleavings; counterexamples are minimized and
                        replayable. Survivors must still drain cleanly.
    --crash-node V      which node --crash-nth kills (default: 0); must be
                        below every selected scenario's processor count
    --races             arm the happens-before race detector: a detected
                        data race is a first-class counterexample with a
                        minimized replayable witness, and the DRF => SC
                        value checks apply only to race-free paths (see
                        the deliberately racy 'racy' scenario)
    --max-states N      stop after visiting N states (default: 200000)
    --max-depth N       abandon paths longer than N choices (default: 4000)
    --exhaustive        no state limit: explore until the space is exhausted
    --replay SCHEDULE   replay one comma-separated schedule ('-' = natural
                        order) instead of exploring; requires a single
                        --scenario and --protocol
    --list              list scenarios and exit
    --help              this text

Exit status: 0 if every checked combination passes, 1 on any counterexample,
2 on usage errors.";

struct Args {
    scenario: String,
    protocol: String,
    fault: Fault,
    opts: BuildOpts,
    limits: Limits,
    replay: Option<Vec<usize>>,
    list: bool,
}

/// The value after `flag`, parsed as a `T`.
fn value<T: FromStr>(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    let v = it.next().ok_or(format!("{flag} needs a value"))?;
    v.parse().map_err(|e| format!("{flag}: {e}"))
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        scenario: "all".to_string(),
        protocol: "all".to_string(),
        fault: Fault::None,
        opts: BuildOpts::default(),
        limits: Limits::default(),
        replay: None,
        list: false,
    };
    let (mut crash_nth, mut crash_node) = (None, None);
    let argv = std::env::args_os()
        .skip(1)
        .map(|a| a.into_string().map_err(|a| format!("argument {a:?} is not valid UTF-8")))
        .collect::<Result<Vec<_>, _>>()?;
    let mut it = argv.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scenario" => args.scenario = value(&mut it, "--scenario")?,
            "--protocol" => args.protocol = value(&mut it, "--protocol")?,
            "--fault" => args.fault = parse_fault(&value::<String>(&mut it, "--fault")?)?,
            "--nack-nth" => args.opts.nack_nth = Some(value(&mut it, "--nack-nth")?),
            "--crash-nth" => crash_nth = Some(value(&mut it, "--crash-nth")?),
            "--crash-node" => crash_node = Some(value(&mut it, "--crash-node")?),
            "--max-states" => args.limits.max_states = value(&mut it, "--max-states")?,
            "--max-depth" => args.limits.max_depth = value(&mut it, "--max-depth")?,
            "--races" => args.opts.races = true,
            "--exhaustive" => args.limits.max_states = 0,
            "--replay" => {
                args.replay = Some(report::parse_schedule(&value::<String>(&mut it, "--replay")?)?)
            }
            "--list" => args.list = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?} (try --help)")),
        }
    }
    args.opts.crash_nth = match (crash_nth, crash_node) {
        (Some(n), node) => Some((node.unwrap_or(0), n)),
        (None, Some(_)) => return Err("--crash-node needs --crash-nth".to_string()),
        (None, None) => None,
    };
    Ok(args)
}

fn protocols_for(sel: &str) -> Result<Vec<Protocol>, String> {
    if sel == "all" {
        Ok(Protocol::ALL.to_vec())
    } else {
        Ok(vec![parse_protocol(sel)?])
    }
}

fn scenarios_for(sel: &str) -> Result<Vec<scenario::Scenario>, String> {
    if sel == "all" {
        Ok(scenario::all())
    } else {
        scenario::by_name(sel)
            .map(|s| vec![s])
            .ok_or_else(|| format!("unknown scenario {sel:?} (try --list)"))
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lrc-check: {e}");
            return ExitCode::from(2);
        }
    };

    if args.list {
        for s in scenario::all() {
            println!("{:<16} {} procs, {} line(s) — {}", s.name, s.procs, s.lines, s.about);
        }
        return ExitCode::SUCCESS;
    }

    let (scenarios, protocols) = match (scenarios_for(&args.scenario), protocols_for(&args.protocol))
    {
        (Ok(s), Ok(p)) => (s, p),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("lrc-check: {e}");
            return ExitCode::from(2);
        }
    };

    if let Some((node, _)) = args.opts.crash_nth {
        if let Some(s) = scenarios.iter().find(|s| node >= s.procs) {
            eprintln!(
                "lrc-check: --crash-node {node} is out of range for scenario {} ({} processors)",
                s.name, s.procs
            );
            return ExitCode::from(2);
        }
    }

    if let Some(schedule) = args.replay {
        if scenarios.len() != 1 || protocols.len() != 1 {
            eprintln!("lrc-check: --replay needs a single --scenario and --protocol");
            return ExitCode::from(2);
        }
        let (s, p) = (&scenarios[0], protocols[0]);
        let (failure, m) = replay_schedule(s, p, args.fault, args.opts, &schedule);
        return match failure {
            Some(failure) => {
                let cex = Counterexample { schedule, failure };
                print!("{}", report::render(s, p, args.fault, args.opts, &cex));
                ExitCode::FAILURE
            }
            None => {
                println!(
                    "replay of {} under {} completed cleanly ({} events pending)",
                    s.name,
                    p.name(),
                    m.num_pending()
                );
                ExitCode::SUCCESS
            }
        };
    }

    let mut failed = false;
    for s in &scenarios {
        for &p in &protocols {
            let outcome = check_and_minimize(s, p, args.fault, args.opts, args.limits);
            let r = &outcome.report;
            let coverage = if r.complete { "exhaustive" } else { "bounded" };
            match &outcome.rendered {
                None => println!(
                    "PASS {:<16} {:<9} {} states, {} terminal(s), depth {} ({})",
                    s.name, p.name(), r.states, r.terminals, r.max_depth_seen, coverage
                ),
                Some(rendered) => {
                    failed = true;
                    println!(
                        "FAIL {:<16} {:<9} after {} states ({})",
                        s.name,
                        p.name(),
                        r.states,
                        coverage
                    );
                    print!("{rendered}");
                }
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
