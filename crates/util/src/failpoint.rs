//! Hand-rolled failpoint injection (no crates.io access, so no `fail` crate).
//!
//! A *failpoint* is a named site in a hot path where a test or operator can
//! inject a fault. Sites are declared with [`fail_point!`]; each site supports
//! three actions:
//!
//! * `return` — the macro evaluates to an `Err`, exercising the error path.
//! * `panic` — the site panics, exercising unwind/poison handling.
//! * `abort` — the process dies on the spot (`std::process::abort`), the
//!   closest portable stand-in for `kill -9` at an exact instruction.
//!
//! Configuration comes from the `SIMRANKPP_FAILPOINTS` environment variable
//! (read once, at first evaluation) or programmatically via [`set`] in tests:
//!
//! ```text
//! SIMRANKPP_FAILPOINTS="snapshot-save=return,checkpoint-commit=abort"
//! SIMRANKPP_FAILPOINTS="ingest-epoch-apply=2*abort"   # fire on the 2nd hit
//! ```
//!
//! Entries are comma- or semicolon-separated `site=action` pairs; an action
//! may be prefixed `N*` to pass through N−1 hits before firing (a countdown),
//! which is how the chaos harness reaches *mid-stream* crash points rather
//! than only the first write.
//!
//! A test can also attach a *hook* to a site ([`set_hook`]): a closure run
//! on the evaluating thread each time the site is reached, before the site's
//! action — the deterministic way to observe the program *at* the site
//! (what is locked, who is still being served) without sleeping.
//!
//! ## Zero cost when disabled
//!
//! The registry below always compiles (it is a few hundred bytes), but the
//! [`fail_point!`] macro expands to nothing unless the **calling** crate is
//! built with its `failpoints` feature. Release binaries built without the
//! feature contain no trace of the sites — no branch, no string, nothing.
//! Crates that declare sites (`util`, `graph`, `serve`) each have a
//! `failpoints` feature, unified by the facade crate's `failpoints`.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// What a configured site does when evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Evaluate to an error at the site (`fail_point!` returns `Err`).
    ReturnError,
    /// Panic at the site with a recognizable message.
    Panic,
    /// `std::process::abort()` — no unwinding, no destructors, no flush.
    Abort,
}

#[derive(Debug, Clone, Copy)]
struct Arm {
    action: Action,
    /// Hits remaining before the action fires; 0 means "fire now".
    countdown: u64,
}

type Hook = Arc<dyn Fn() + Send + Sync>;

struct Registry {
    sites: Mutex<HashMap<String, Arm>>,
    hooks: Mutex<HashMap<String, Hook>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        let reg = Registry {
            sites: Mutex::new(HashMap::new()),
            hooks: Mutex::new(HashMap::new()),
        };
        if let Ok(spec) = std::env::var("SIMRANKPP_FAILPOINTS") {
            if let Err(err) = apply_spec(&reg, &spec) {
                // A malformed spec must be loud, not silently ignored: the
                // whole point is deterministic fault injection.
                panic!("invalid SIMRANKPP_FAILPOINTS: {err}");
            }
        }
        reg
    })
}

fn apply_spec(reg: &Registry, spec: &str) -> Result<(), String> {
    let mut sites = reg.sites.lock().unwrap_or_else(|e| e.into_inner());
    for entry in spec.split([',', ';']) {
        let entry = entry.trim();
        if entry.is_empty() {
            continue;
        }
        let (site, action) = entry
            .split_once('=')
            .ok_or_else(|| format!("entry `{entry}` is not of the form site=action"))?;
        let arm = parse_action(action.trim())?;
        sites.insert(site.trim().to_string(), arm);
    }
    Ok(())
}

fn parse_action(spec: &str) -> Result<Arm, String> {
    let (countdown, action) = match spec.split_once('*') {
        Some((n, rest)) => {
            let n: u64 = n
                .trim()
                .parse()
                .map_err(|_| format!("bad countdown in `{spec}`"))?;
            if n == 0 {
                return Err(format!("countdown in `{spec}` must be >= 1"));
            }
            (n - 1, rest.trim())
        }
        None => (0, spec),
    };
    let action = match action {
        "return" => Action::ReturnError,
        "panic" => Action::Panic,
        "abort" => Action::Abort,
        other => return Err(format!("unknown action `{other}` (return|panic|abort)")),
    };
    Ok(Arm { action, countdown })
}

/// Programmatically configures `site` (tests; overrides any env spec).
pub fn set(site: &str, action: Action, countdown: u64) {
    let reg = registry();
    let mut sites = reg.sites.lock().unwrap_or_else(|e| e.into_inner());
    sites.insert(
        site.to_string(),
        Arm {
            action,
            countdown: countdown.saturating_sub(1),
        },
    );
}

/// Parses and applies a `site=action,...` spec at runtime (same grammar as
/// the `SIMRANKPP_FAILPOINTS` environment variable).
pub fn configure(spec: &str) -> Result<(), String> {
    apply_spec(registry(), spec)
}

/// Removes the configuration for `site`.
pub fn clear(site: &str) {
    let reg = registry();
    let mut sites = reg.sites.lock().unwrap_or_else(|e| e.into_inner());
    sites.remove(site);
}

/// Attaches `hook` to `site`: it runs on the evaluating thread at every
/// evaluation of the site, before the site's action (and whether or not one
/// is configured), with no registry lock held.
pub fn set_hook(site: &str, hook: impl Fn() + Send + Sync + 'static) {
    let mut hooks = registry().hooks.lock().unwrap_or_else(|e| e.into_inner());
    hooks.insert(site.to_string(), Arc::new(hook));
}

/// Detaches `site`'s hook.
pub fn clear_hook(site: &str) {
    let mut hooks = registry().hooks.lock().unwrap_or_else(|e| e.into_inner());
    hooks.remove(site);
}

/// Removes every configured site and hook (test isolation).
pub fn clear_all() {
    let reg = registry();
    reg.sites.lock().unwrap_or_else(|e| e.into_inner()).clear();
    reg.hooks.lock().unwrap_or_else(|e| e.into_inner()).clear();
}

/// Evaluates the failpoint `site`.
///
/// Returns `Some(message)` when the site is configured with `return` and its
/// countdown has elapsed — the caller (the [`fail_point!`] expansion) turns
/// the message into its error type. `Panic` and `Abort` never return.
/// Unconfigured sites return `None`.
///
/// This function is called only from `fail_point!` expansions, which are
/// compiled out without the `failpoints` feature; it is not itself hot.
pub fn eval(site: &str) -> Option<String> {
    let reg = registry();
    let hook = reg
        .hooks
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .get(site)
        .cloned();
    if let Some(hook) = hook {
        hook();
    }
    let mut sites = reg.sites.lock().unwrap_or_else(|e| e.into_inner());
    let arm = sites.get_mut(site)?;
    if arm.countdown > 0 {
        arm.countdown -= 1;
        return None;
    }
    let action = arm.action;
    drop(sites); // never panic/abort while holding the registry lock
    match action {
        Action::ReturnError => Some(format!("failpoint `{site}` triggered")),
        Action::Panic => panic!("failpoint `{site}` panic"),
        Action::Abort => {
            // stderr is line-buffered and abort() skips atexit flushing, so
            // write the marker eagerly for the chaos harness to observe.
            use std::io::Write;
            let _ = writeln!(std::io::stderr(), "failpoint `{site}` abort");
            let _ = std::io::stderr().flush();
            std::process::abort();
        }
    }
}

/// Injects a failpoint at the current statement.
///
/// `fail_point!("site")` — in a function returning `io::Result`, a `return`
/// action becomes `Err(io::Error::new(ErrorKind::Other, msg))`.
///
/// `fail_point!("site", |msg| expr)` — maps the message through a closure to
/// build a custom error type (`String`, enum variant, ...).
///
/// Expands to nothing unless the calling crate enables its `failpoints`
/// feature, so every site is free in production builds.
#[macro_export]
macro_rules! fail_point {
    ($site:expr) => {
        #[cfg(feature = "failpoints")]
        {
            if let Some(msg) = $crate::failpoint::eval($site) {
                return Err(::std::io::Error::new(::std::io::ErrorKind::Other, msg).into());
            }
        }
    };
    ($site:expr, $to_err:expr) => {
        #[cfg(feature = "failpoints")]
        {
            if let Some(msg) = $crate::failpoint::eval($site) {
                #[allow(clippy::redundant_closure_call)]
                return Err(($to_err)(msg));
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-global, so tests use distinct site names and
    // clean up after themselves rather than relying on clear_all (other test
    // threads may be mid-flight).

    #[test]
    fn unconfigured_site_is_inert() {
        assert_eq!(eval("fp-test-unconfigured"), None);
    }

    #[test]
    fn return_action_yields_message() {
        set("fp-test-return", Action::ReturnError, 1);
        let msg = eval("fp-test-return").expect("configured site must fire");
        assert!(msg.contains("fp-test-return"));
        // Still configured: fires every evaluation until cleared.
        assert!(eval("fp-test-return").is_some());
        clear("fp-test-return");
        assert_eq!(eval("fp-test-return"), None);
    }

    #[test]
    fn hook_runs_at_every_evaluation_before_the_action() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let seen = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&seen);
        set_hook("fp-test-hook", move || {
            counter.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(eval("fp-test-hook"), None);
        set("fp-test-hook", Action::ReturnError, 1);
        assert!(eval("fp-test-hook").is_some());
        assert_eq!(seen.load(Ordering::SeqCst), 2);
        clear_hook("fp-test-hook");
        clear("fp-test-hook");
        assert_eq!(eval("fp-test-hook"), None);
        assert_eq!(seen.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn countdown_passes_through_then_fires() {
        set("fp-test-countdown", Action::ReturnError, 3);
        assert_eq!(eval("fp-test-countdown"), None);
        assert_eq!(eval("fp-test-countdown"), None);
        assert!(eval("fp-test-countdown").is_some());
        clear("fp-test-countdown");
    }

    #[test]
    #[should_panic(expected = "failpoint `fp-test-panic` panic")]
    fn panic_action_panics() {
        set("fp-test-panic", Action::Panic, 1);
        eval("fp-test-panic");
    }

    #[test]
    fn spec_grammar() {
        configure("fp-test-spec-a=return; fp-test-spec-b = 5*abort ,").unwrap();
        assert!(eval("fp-test-spec-a").is_some());
        // b has countdown 4 remaining; evaluate twice, it must not abort the
        // test process (we only burn 2 of the 4 pass-throughs).
        assert_eq!(eval("fp-test-spec-b"), None);
        assert_eq!(eval("fp-test-spec-b"), None);
        clear("fp-test-spec-a");
        clear("fp-test-spec-b");

        assert!(configure("no-equals-sign").is_err());
        assert!(configure("x=explode").is_err());
        assert!(configure("x=0*return").is_err());
        assert!(configure("x=zz*return").is_err());
    }
}
