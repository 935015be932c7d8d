//! Panic payloads used to unwind guest executions, and the global panic
//! hook that keeps exploration quiet.
//!
//! The model checker stops a guest execution by panicking with a typed
//! payload and catching it at the execution boundary — the re-execution
//! analogue of the original Jaaru's fork-based rollback.

use std::cell::{Cell, RefCell};
use std::panic::{self, Location};
use std::sync::Once;

use crate::report::BugKind;

/// Payload for a simulated power failure: the execution stops here and a
/// post-failure execution begins against the same persistent state.
pub(crate) struct CrashSignal;

/// Payload for a detected bug: the execution aborts and the scenario is
/// recorded in the check report.
pub(crate) struct AbortSignal {
    pub kind: BugKind,
    pub message: String,
    pub location: Option<&'static Location<'static>>,
}

thread_local! {
    /// While `true`, the panic hook stays silent: panics are expected
    /// control flow (crash signals, guest assertion failures being
    /// harvested as bugs).
    static SUPPRESS_PANIC_OUTPUT: Cell<bool> = const { Cell::new(false) };
    /// Location of the most recent panic on this thread, captured by the
    /// hook so guest `assert!` failures can be attributed to source lines.
    static LAST_PANIC_LOCATION: RefCell<Option<String>> = const { RefCell::new(None) };
}

static HOOK: Once = Once::new();

/// Installs the panic hook exactly once, process-wide. The hook delegates
/// to the previous hook unless the current thread is running a guest
/// execution under the checker.
pub(crate) fn install_panic_hook() {
    HOOK.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if let Some(loc) = info.location() {
                LAST_PANIC_LOCATION.with(|l| *l.borrow_mut() = Some(loc.to_string()));
            }
            if !SUPPRESS_PANIC_OUTPUT.with(Cell::get) {
                previous(info);
            }
        }));
    });
}

/// Runs `f` with panic output suppressed on this thread.
///
/// Companion tools (the eager baseline, the comparators) use panics as
/// expected control flow for simulated crashes, exactly like the checker
/// itself; wrapping their `catch_unwind` sites in this keeps runs quiet.
/// The hook is installed on first use and delegates to the previous hook
/// outside suppressed sections.
pub fn with_quiet_panics<T>(f: impl FnOnce() -> T) -> T {
    install_panic_hook();
    with_quiet_panics_inner(f)
}

pub(crate) fn with_quiet_panics_inner<T>(f: impl FnOnce() -> T) -> T {
    struct Guard(bool);
    impl Drop for Guard {
        fn drop(&mut self) {
            SUPPRESS_PANIC_OUTPUT.with(|s| s.set(self.0));
        }
    }
    let prev = SUPPRESS_PANIC_OUTPUT.with(|s| s.replace(true));
    let _guard = Guard(prev);
    f()
}

/// The location of the most recent panic on this thread, as
/// `file:line:column`, if any panic occurred.
pub(crate) fn take_last_panic_location() -> Option<String> {
    LAST_PANIC_LOCATION.with(|l| l.borrow_mut().take())
}

/// Extracts a human-readable message from an arbitrary panic payload.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn quiet_panics_restore_flag() {
        install_panic_hook();
        let before = SUPPRESS_PANIC_OUTPUT.with(Cell::get);
        let _ = with_quiet_panics(|| {
            catch_unwind(AssertUnwindSafe(|| panic!("expected test panic"))).unwrap_err()
        });
        assert_eq!(SUPPRESS_PANIC_OUTPUT.with(Cell::get), before);
    }

    #[test]
    fn panic_location_is_captured() {
        install_panic_hook();
        let _ = with_quiet_panics(|| {
            catch_unwind(AssertUnwindSafe(|| panic!("expected test panic"))).unwrap_err()
        });
        let loc = take_last_panic_location().expect("location captured");
        assert!(loc.contains("signal.rs"), "got {loc}");
        assert!(take_last_panic_location().is_none(), "take clears the slot");
    }

    #[test]
    fn panic_message_extraction() {
        let boxed: Box<dyn std::any::Any + Send> = Box::new("static message");
        assert_eq!(panic_message(boxed.as_ref()), "static message");
        let boxed: Box<dyn std::any::Any + Send> = Box::new(String::from("owned"));
        assert_eq!(panic_message(boxed.as_ref()), "owned");
        let boxed: Box<dyn std::any::Any + Send> = Box::new(42u32);
        assert_eq!(panic_message(boxed.as_ref()), "non-string panic payload");
    }
}
