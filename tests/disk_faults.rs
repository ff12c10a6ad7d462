//! Storage-fault end-to-end tests (`--features fault-inject`): the
//! [`DiskFaultPlan`] plants torn writes, bit flips, truncation, `ENOSPC`,
//! and fsync failures at chosen points, and these tests prove the
//! campaign's durability contracts:
//!
//! * a full spill disk quarantines the affected tests under the named
//!   [`FailureCause::DiskFull`] and the campaign completes DEGRADED;
//! * a truncated spill run is a hard, offset-naming corruption error —
//!   never a silently partial merge;
//! * a torn or bit-flipped journal is detected on resume (surfaced
//!   `skipped_lines`), repaired by `mtracecheck fsck --repair`, and the
//!   resumed campaign's journal ends byte-identical to an uninterrupted
//!   run's;
//! * `ENOSPC` on a journal append degrades the journal, never the
//!   verdicts.

use mtracecheck::fsck::{fsck_file, FsckStatus};
use mtracecheck::isa::IsaKind;
use mtracecheck::{
    Campaign, CampaignConfig, CampaignJournal, DiskFaultPlan, FailureCause, TestConfig,
};

mod common;
use common::temp_dir;

fn serde_is_stubbed() -> bool {
    serde_json::to_string(&0u32).is_err()
}

fn config() -> CampaignConfig {
    CampaignConfig::new(TestConfig::new(IsaKind::Arm, 2, 12, 6).with_seed(19), 40).with_tests(4)
}

/// Final journal bytes minus the footer line: footers carry host-timing
/// statistics that legitimately differ across runs.
fn strip_footer(text: &str) -> String {
    text.lines()
        .filter(|line| !line.contains("\"Footer\""))
        .map(|line| format!("{line}\n"))
        .collect()
}

#[test]
fn spill_enospc_quarantines_as_disk_full_and_degrades() {
    // Every test's first spill hits a full disk (run ordinals restart per
    // attempt, so ordinal 0 fires for each test). The campaign must finish
    // DEGRADED with every test quarantined under DiskFull — the dedicated
    // cause, not generic SpillIo — because operators triage "disk is full"
    // (free space, rerun) differently from "disk is failing" (replace it).
    let dir = temp_dir("enospc");
    let report = Campaign::new(
        config()
            .with_memory_budget(1, dir.clone())
            .with_disk_faults(DiskFaultPlan {
                spill_enospc_at: vec![0],
                ..DiskFaultPlan::default()
            }),
    )
    .run();
    assert!(report.is_degraded());
    assert!(report.tests.is_empty());
    assert_eq!(report.quarantined.len(), 4);
    for record in &report.quarantined {
        match &record.attempts[0].cause {
            FailureCause::DiskFull { error } => {
                assert!(error.contains("os error 28"), "carries the errno: {error}");
            }
            other => panic!("expected DiskFull, got {other}"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn spill_faults_key_on_run_ordinal() {
    // The same plan aimed at an ordinal no test ever reaches is inert:
    // proof the injection keys on the store's run sequence, not on time.
    let dir = temp_dir("enospc-inert");
    let report = Campaign::new(
        config()
            .with_memory_budget(1, dir.clone())
            .with_disk_faults(DiskFaultPlan {
                spill_enospc_at: vec![u64::MAX],
                truncate_spill_at: vec![(u64::MAX, 0)],
                ..DiskFaultPlan::default()
            }),
    )
    .run();
    assert!(!report.is_degraded());
    assert!(report.quarantined.is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_spill_run_is_a_named_corruption_never_a_partial_merge() {
    // Run 0 of each test is truncated to 30 bytes after its fsync
    // "succeeded" — mid-first-entry, past the valid 24-byte header. The
    // merge must refuse the run with an offset-naming corruption error
    // (classified SpillIo: the disk lied, it isn't full).
    let dir = temp_dir("truncate");
    let report = Campaign::new(
        config()
            .with_memory_budget(1, dir.clone())
            .with_disk_faults(DiskFaultPlan {
                truncate_spill_at: vec![(0, 30)],
                ..DiskFaultPlan::default()
            }),
    )
    .run();
    assert!(report.is_degraded());
    assert_eq!(report.quarantined.len(), 4);
    for record in &report.quarantined {
        match &record.attempts[0].cause {
            FailureCause::SpillIo { error } => {
                assert!(
                    error.contains("truncated spill run") || error.contains("checksum mismatch"),
                    "names the corruption: {error}"
                );
            }
            other => panic!("expected SpillIo corruption, got {other}"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_journal_is_repaired_by_fsck_and_resumes_byte_identical() {
    if serde_is_stubbed() {
        eprintln!("skipping: serde_json devstub cannot serialize");
        return;
    }
    let dir = temp_dir("torn");

    // Reference: an uninterrupted journaled run of the same campaign.
    let reference_path = dir.join("reference.journal");
    let campaign = Campaign::new(config());
    let journal = CampaignJournal::create(&reference_path, campaign.config()).expect("create");
    campaign.run_with_journal(&journal);
    let reference = std::fs::read_to_string(&reference_path).expect("reference bytes");

    // Faulted: test 1's record is torn 25 bytes in (no newline lands — the
    // scar of a power cut mid-write), and the final checkpoint's fsync
    // fails so the torn append-order file is what survives on disk. The
    // run itself still completes; only the journal is degraded.
    let torn_path = dir.join("torn.journal");
    let campaign = Campaign::new(config().with_disk_faults(DiskFaultPlan {
        torn_journal_at: vec![(1, 25)],
        commit_fsync_fails: true,
        ..DiskFaultPlan::default()
    }));
    let journal = CampaignJournal::create(&torn_path, campaign.config()).expect("create");
    let report = campaign.run_with_journal(&journal);
    assert!(report.journal_degraded, "failed checkpoint is surfaced");
    assert_eq!(
        report.tests.len(),
        4,
        "verdicts never depend on the journal"
    );

    // fsck names the tear; --repair compacts to the valid lines.
    let audit = fsck_file(&torn_path, false);
    assert!(
        matches!(audit.status, FsckStatus::CorruptionDetected { .. }),
        "got {:?}",
        audit.status
    );
    let audit = fsck_file(&torn_path, true);
    assert!(matches!(audit.status, FsckStatus::Repaired { .. }));

    // Resume on the repaired journal: no skipped lines (fsck already
    // compacted), the lost tests re-run, and the finalized journal is
    // byte-identical to the uninterrupted run's (modulo the stats footer).
    let campaign = Campaign::new(config());
    let journal = CampaignJournal::resume(&torn_path, campaign.config()).expect("resume");
    assert_eq!(journal.skipped_lines(), 0);
    assert!(journal.replayed() >= 2, "undamaged records replay");
    campaign.run_with_journal(&journal);
    let resumed = std::fs::read_to_string(&torn_path).expect("resumed bytes");
    assert_eq!(strip_footer(&resumed), strip_footer(&reference));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn flipped_journal_bit_is_skipped_loudly_on_resume() {
    if serde_is_stubbed() {
        eprintln!("skipping: serde_json devstub cannot serialize");
        return;
    }
    // A single flipped bit in test 1's record (the line still parses as a
    // line — only the CRC knows). The checkpoint fsync fails so the
    // corrupt line survives; resume must skip exactly that record and
    // surface the skip, never silently replay a shorter campaign.
    let dir = temp_dir("flip");
    let path = dir.join("campaign.journal");
    let campaign = Campaign::new(config().with_disk_faults(DiskFaultPlan {
        flip_journal_at: vec![(1, 10)],
        commit_fsync_fails: true,
        ..DiskFaultPlan::default()
    }));
    let journal = CampaignJournal::create(&path, campaign.config()).expect("create");
    campaign.run_with_journal(&journal);

    let campaign = Campaign::new(config());
    let journal = CampaignJournal::resume(&path, campaign.config()).expect("resume");
    assert_eq!(journal.skipped_lines(), 1, "exactly the flipped record");
    assert_eq!(journal.replayed(), 3, "undamaged records replay");
    let report = campaign.run_with_journal(&journal);
    assert_eq!(report.tests.len(), 4);
    assert_eq!(report.resumed_tests, 3);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn journal_enospc_degrades_the_journal_not_the_verdicts() {
    if serde_is_stubbed() {
        eprintln!("skipping: serde_json devstub cannot serialize");
        return;
    }
    // Test 1's journal append hits a full disk. The campaign must complete
    // with every verdict intact and only the journal marked incomplete;
    // resume re-runs exactly the unrecorded test.
    let dir = temp_dir("journal-enospc");
    let path = dir.join("campaign.journal");
    let campaign = Campaign::new(config().with_disk_faults(DiskFaultPlan {
        journal_enospc_at: vec![1],
        ..DiskFaultPlan::default()
    }));
    let journal = CampaignJournal::create(&path, campaign.config()).expect("create");
    let report = campaign.run_with_journal(&journal);
    assert!(report.journal_degraded);
    assert!(report.is_degraded(), "incomplete journal means exit 3");
    assert!(report.quarantined.is_empty());
    assert_eq!(report.tests.len(), 4, "verdicts are complete");

    let audit = fsck_file(&path, false);
    assert!(
        matches!(audit.status, FsckStatus::Clean),
        "a lost append leaves no corruption, just a missing record: {:?}",
        audit.status
    );

    let campaign = Campaign::new(config());
    let journal = CampaignJournal::resume(&path, campaign.config()).expect("resume");
    assert_eq!(journal.skipped_lines(), 0);
    assert_eq!(journal.replayed(), 3, "only test 1's record is missing");

    let _ = std::fs::remove_dir_all(&dir);
}
