//! Shadow `std::thread`: spawn/join that register virtual threads with the
//! scheduler when running under a [`crate::Checker`], and delegate to real
//! OS threads otherwise. Each virtual thread is still backed by a real OS
//! thread — the scheduler just serializes them.

use std::io;
use std::sync::{Arc, Mutex as StdMutex};
use std::time::Duration;

use crate::sched;

/// Shadow `std::thread::Builder`.
#[derive(Debug, Default)]
pub struct Builder {
    name: Option<String>,
}

impl Builder {
    pub fn new() -> Builder {
        Builder { name: None }
    }

    pub fn name(mut self, name: String) -> Builder {
        self.name = Some(name);
        self
    }

    pub fn spawn<F, T>(self, f: F) -> io::Result<JoinHandle<T>>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        let name = self.name.unwrap_or_else(|| "spawned".to_string());
        match sched::thread_spawn(&name) {
            Some((exec, vtid)) => {
                let slot = Arc::new(StdMutex::new(None));
                let slot2 = Arc::clone(&slot);
                let handle = std::thread::Builder::new().name(name).spawn(move || {
                    sched::runner(exec, vtid, move || {
                        let v = f();
                        *slot2.lock().unwrap_or_else(|p| p.into_inner()) = Some(v);
                    });
                })?;
                Ok(JoinHandle(Inner::Virtual { handle, vtid, slot }))
            }
            None => {
                let handle = std::thread::Builder::new().name(name).spawn(f)?;
                Ok(JoinHandle(Inner::Real(handle)))
            }
        }
    }
}

enum Inner<T> {
    Real(std::thread::JoinHandle<T>),
    Virtual {
        handle: std::thread::JoinHandle<()>,
        vtid: usize,
        slot: Arc<StdMutex<Option<T>>>,
    },
}

/// Shadow `std::thread::JoinHandle`.
pub struct JoinHandle<T>(Inner<T>);

impl<T> JoinHandle<T> {
    pub fn join(self) -> std::thread::Result<T> {
        match self.0 {
            Inner::Real(h) => h.join(),
            Inner::Virtual { handle, vtid, slot } => {
                // Virtual join: blocks in the model until the thread's
                // body finished (establishing happens-before), then reaps
                // the OS thread, whose remaining work is a few statements.
                sched::thread_join(vtid);
                let _ = handle.join();
                // The slot is empty when the execution was aborted: the
                // join then runs unmanaged (often from a destructor during
                // the unwind) and the thread was torn down mid-body.
                let v = slot.lock().unwrap_or_else(|p| p.into_inner()).take();
                v.ok_or_else(|| {
                    Box::new("joined virtual thread was aborted") as Box<dyn std::any::Any + Send>
                })
            }
        }
    }
}

/// Shadow `std::thread::spawn`.
pub fn spawn<F, T>(f: F) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    Builder::new().spawn(f).expect("failed to spawn thread") // xxi-allow: panic-path -- see the expect message
}

/// Shadow `std::thread::yield_now`: a pure scheduling point under the
/// checker.
pub fn yield_now() {
    if sched::is_managed() {
        sched::op_yield();
    } else {
        std::thread::yield_now();
    }
}

/// Shadow `std::thread::sleep`: the model abstracts time away, so a
/// managed sleep is just a scheduling point.
pub fn sleep(dur: Duration) {
    if sched::is_managed() {
        sched::op_yield();
    } else {
        std::thread::sleep(dur); // xxi-allow: determinism -- unmanaged fallback outside the checker
    }
}
