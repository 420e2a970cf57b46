//! `paper_log`: the paper preset captured to a binary log file, then
//! replayed from that file.
//!
//! Set-up runs the same study without a log; its rendered report is the
//! reference. Timed: (1) the run with `log_out` → render, (2)
//! `replay_study` of the file → render. Both renders must equal the
//! reference byte for byte. A codec change that helps one side and hurts
//! the other shows in the sum.

use crate::harness::{Harness, Pass, SETUP_REPS};
use crate::layers::span_s;
use likelab_core::{
    read_study_log, replay_study, run_study_opts, ReplayOptions, RunOptions, StudyConfig,
};
use likelab_sim::Exec;
use std::path::Path;
use std::time::Instant;

/// Default world scale.
pub const DEFAULT_SCALE: f64 = 0.05;

/// Where the log file goes, relative to the working directory; removed
/// at the end of the run.
const WORK_DIR: &str = ".bench_work";

/// Run the workload.
pub fn run(h: &mut Harness, seed: u64, scale: f64, exec: Exec) {
    let work = Path::new(WORK_DIR).join(std::process::id().to_string());
    if let Err(e) = std::fs::create_dir_all(&work) {
        h.check(false, || format!("create {}: {e}", work.display()));
        return;
    }
    measure(h, seed, scale, exec, &work);
    let _ = std::fs::remove_dir_all(&work);
    // Fails, harmlessly, while another run still holds a directory in it.
    let _ = std::fs::remove_dir(WORK_DIR);
}

fn measure(h: &mut Harness, seed: u64, scale: f64, exec: Exec, work: &Path) {
    let config = StudyConfig::paper(seed, scale);
    let plain = RunOptions {
        exec,
        ..RunOptions::default()
    };
    let mut reference: Option<String> = None;
    for _ in 0..SETUP_REPS {
        let text = h.setup(|| run_study_opts(&config, &plain).map(|o| o.report.render()));
        match (text, &reference) {
            (Err(e), _) => h.check(false, || format!("reference study failed: {e}")),
            (Ok(t), None) => reference = Some(t),
            (Ok(t), Some(r)) => h.check(&t == r, || "the study is not deterministic".into()),
        }
    }
    let Some(reference) = reference else {
        return;
    };

    let log_path = work.join("paper.log");
    let capture = RunOptions {
        exec,
        log_out: Some(log_path.clone()),
        ..RunOptions::default()
    };
    let replay = ReplayOptions {
        exec,
        ..ReplayOptions::default()
    };
    h.passes(|pass: &mut Pass| {
        // Unlink the last pass's log before writing the next. Rewriting it
        // in place truncates it, and ext4 then starts writing the new file
        // to disk when it is closed; an unlinked file's unwritten pages are
        // dropped instead, so the passes do no disk I/O.
        let _ = std::fs::remove_file(&log_path);
        let captured = pass.timed("capture", || {
            run_study_opts(&config, &capture).map(|o| {
                let text = o.report.render();
                (o, text)
            })
        });
        match captured {
            Ok((outcome, text)) => {
                pass.check(text == reference, || {
                    "captured run differs from the plain run".into()
                });
                // Free the captured world before the replay builds its own.
                drop(outcome);
            }
            Err(e) => {
                pass.check(false, || format!("captured run failed: {e}"));
                return;
            }
        }
        if pass.traced() {
            let bytes = std::fs::metadata(&log_path).map_or(0, |m| m.len());
            pass.add("log.mib", bytes as f64 / (1024.0 * 1024.0));
        }
        let replayed = pass.timed("replay", || {
            replay_study(&log_path, &replay).map(|o| {
                let text = o.report.render();
                (o, text)
            })
        });
        match replayed {
            Ok((outcome, text)) => {
                pass.check(text == reference, || {
                    "replay differs from the captured run".into()
                });
                if let Some(snap) = pass.snapshot("replay") {
                    let report_s = span_s(snap, "report.compute");
                    pass.add("replay.report_s", report_s);
                    pass.add("replay.likes", outcome.world.likes().len() as f64);
                }
            }
            Err(e) => pass.check(false, || format!("replay failed: {e}")),
        }
    });

    if h.trace() {
        // The log's cost in the captured run: the same run without it is
        // the set-up.
        let journal = h.phase_median("capture") - h.setup_median();
        h.set_layer("log.journal_s", journal);
        let started = Instant::now();
        let decoded = read_study_log(&log_path);
        h.set_layer("replay.decode_s", started.elapsed().as_secs_f64());
        h.check(decoded.is_ok(), || {
            "the captured log does not decode".into()
        });
    }
}
