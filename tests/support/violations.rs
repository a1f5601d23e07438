//! The check a root integration test makes of a finished run that must
//! have broken none of SCP's promises. Each such test includes this file
//! by `#[path]`; a test that expects a violation reads the list itself.

use stellar::sim::Violation;

/// Asserts that `violations` (a report's, or the run watchdog's while the
/// simulation is still stepped by hand) is empty, listing each one if not.
#[track_caller]
pub(crate) fn assert_no_violations(violations: &[Violation]) {
    if violations.is_empty() {
        return;
    }
    let listed: Vec<String> = violations.iter().map(|v| format!("  {v:?}")).collect();
    panic!("{} violation(s):\n{}", violations.len(), listed.join("\n"));
}
