//! Dynamic instances of labeled statements (paper §2.1).

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{Label, ObjId, ThreadId};

/// One observed dynamic statement instance.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct Event {
    /// Global sequence number of this event in the execution.
    pub seq: u64,
    /// The thread that executed the statement.
    pub thread: ThreadId,
    /// What happened.
    pub kind: EventKind,
}

impl Event {
    /// Creates an event.
    pub fn new(seq: u64, thread: ThreadId, kind: EventKind) -> Self {
        Event { seq, thread, kind }
    }
}

/// Whether a lock operation takes the lock exclusively (a mutex, an
/// rwlock writer) or shared (an rwlock reader).
///
/// The mode rides on [`EventKind::Acquire`], [`EventKind::Release`],
/// [`EventKind::Blocked`] and [`EventKind::TryAcquire`]. Exclusive is
/// the default everywhere: plain-mutex traces serialize without a
/// `mode` field (byte-identical to the pre-mode format) and traces
/// missing the field deserialize as exclusive.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default, Serialize, Deserialize)]
pub enum AcquireMode {
    /// A write/mutex acquisition: at most one holder.
    #[default]
    Exclusive,
    /// A read acquisition: any number of concurrent shared holders.
    Shared,
}

impl AcquireMode {
    /// Whether this is the exclusive (write) mode.
    pub fn is_exclusive(&self) -> bool {
        matches!(self, AcquireMode::Exclusive)
    }

    /// Whether this is the shared (read) mode.
    pub fn is_shared(&self) -> bool {
        matches!(self, AcquireMode::Shared)
    }

    /// The site-naming word reports use: `"write"` / `"read"`.
    pub fn as_str(&self) -> &'static str {
        match self {
            AcquireMode::Exclusive => "write",
            AcquireMode::Shared => "read",
        }
    }
}

impl fmt::Display for AcquireMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The kinds of dynamic statement instances of §2.1 of the paper, plus a few
/// bookkeeping events the substrates emit (`Blocked`, `Spawn`, …) that the
/// analyses use for debugging output and happens-before experiments.
///
/// Construct values with the builder-style constructors
/// ([`EventKind::acquire`], [`EventKind::release`], …, chained with
/// [`EventKind::shared`]) instead of struct literals — the constructors
/// fill the mode defaults the serialized formats rely on.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum EventKind {
    /// `c: Acquire(l)` — the thread acquired lock `lock` at site `site`.
    ///
    /// Per §2.1 (footnote 2), only 0→1 acquisitions are recorded. As in
    /// the paper, the event carries no lock set: the analysis keeps each
    /// thread's held locks and their sites (`LockSet[t]`, `Context[t]`
    /// of Algorithm 2) itself, from the events it reads.
    Acquire {
        /// The acquired lock.
        lock: ObjId,
        /// Acquisition site.
        site: Label,
        /// Exclusive (write) or shared (read) acquisition.
        mode: AcquireMode,
    },
    /// `c: Release(l)` — usage count dropped 1→0.
    Release {
        /// The released lock.
        lock: ObjId,
        /// Release site.
        site: Label,
        /// The mode of the hold being released.
        mode: AcquireMode,
    },
    /// A re-entrant acquisition (usage count ≥ 1 → ≥ 2); ignored by the
    /// analyses but kept for debugging.
    Reacquire {
        /// The re-acquired lock.
        lock: ObjId,
        /// Acquisition site.
        site: Label,
    },
    /// A re-entrant release (usage count stays ≥ 1).
    Rerelease {
        /// The released lock.
        lock: ObjId,
        /// Release site.
        site: Label,
    },
    /// `c: Call(m)` — method entry for execution indexing.
    Call {
        /// Call-site label.
        site: Label,
    },
    /// `c: Return(m)` — method exit.
    Return,
    /// `c: o = new (o', T)` — object allocation; metadata lives in the
    /// trace's [`crate::ObjectTable`].
    New {
        /// The created object.
        obj: ObjId,
    },
    /// The thread spawned a child thread.
    Spawn {
        /// Id of the spawned thread.
        child: ThreadId,
        /// The thread object representing the child.
        child_obj: ObjId,
    },
    /// The thread began executing.
    ThreadStart,
    /// The thread finished executing.
    ThreadExit,
    /// The thread joined on another thread.
    Join {
        /// The joined thread.
        target: ThreadId,
    },
    /// The thread started waiting for a lock held by another thread.
    Blocked {
        /// The contended lock.
        lock: ObjId,
        /// The mode of the blocked acquisition.
        mode: AcquireMode,
    },
    /// The thread stopped waiting and acquired the contended lock.
    Unblocked {
        /// The formerly contended lock.
        lock: ObjId,
    },
    /// An explicit scheduling point with no other effect.
    Yield,
    /// Simulated computation (a schedule point with a cost attached).
    Work {
        /// Abstract cost units.
        units: u32,
    },
    /// The thread began waiting on a monitor (releasing it), Java
    /// `Object.wait()` style.
    Wait {
        /// The monitor.
        lock: ObjId,
        /// Wait site.
        site: Label,
    },
    /// The thread notified one or all waiters of a monitor.
    Notify {
        /// The monitor.
        lock: ObjId,
        /// Notify site.
        site: Label,
        /// `true` for `notifyAll`.
        all: bool,
    },
    /// A non-blocking acquisition attempt (`try_lock` / `try_read` /
    /// `try_write`). A successful try puts `lock` on the thread's held
    /// stack like an acquire, but records no lock dependency: a try
    /// never blocks, so it can never be the blocking edge of a cycle.
    TryAcquire {
        /// The attempted lock.
        lock: ObjId,
        /// Attempt site.
        site: Label,
        /// Whether the attempt succeeded.
        acquired: bool,
        /// Exclusive (write) or shared (read) attempt.
        mode: AcquireMode,
    },
    /// The thread released `lock` and parked on condition variable
    /// `condvar` (std-style `Condvar::wait`, as opposed to the
    /// monitor-integrated [`EventKind::Wait`]). The surrounding
    /// release/reacquire of `lock` are emitted as ordinary
    /// `Release`/`Acquire` events, so the dependency relation stays
    /// balanced; this event marks the communication edge.
    CondWait {
        /// The condition variable.
        condvar: ObjId,
        /// The lock released for the duration of the wait.
        lock: ObjId,
        /// Wait site.
        site: Label,
    },
    /// The thread notified one or all waiters of condition variable
    /// `condvar`.
    CondNotify {
        /// The condition variable.
        condvar: ObjId,
        /// Notify site.
        site: Label,
        /// `true` for `notify_all`.
        all: bool,
    },
}

impl EventKind {
    // -- builder-style constructors ------------------------------------

    /// A first (0→1) exclusive acquisition; chain [`EventKind::shared`]
    /// for a read acquisition.
    pub fn acquire(lock: ObjId, site: Label) -> Self {
        EventKind::Acquire {
            lock,
            site,
            mode: AcquireMode::Exclusive,
        }
    }

    /// A 1→0 exclusive release; chain [`EventKind::shared`] for a read
    /// release.
    pub fn release(lock: ObjId, site: Label) -> Self {
        EventKind::Release {
            lock,
            site,
            mode: AcquireMode::Exclusive,
        }
    }

    /// A re-entrant acquisition.
    pub fn reacquire(lock: ObjId, site: Label) -> Self {
        EventKind::Reacquire { lock, site }
    }

    /// A re-entrant release.
    pub fn rerelease(lock: ObjId, site: Label) -> Self {
        EventKind::Rerelease { lock, site }
    }

    /// A blocked exclusive acquisition; chain [`EventKind::shared`] for
    /// a blocked read.
    pub fn blocked(lock: ObjId) -> Self {
        EventKind::Blocked {
            lock,
            mode: AcquireMode::Exclusive,
        }
    }

    /// A formerly blocked acquisition that succeeded.
    pub fn unblocked(lock: ObjId) -> Self {
        EventKind::Unblocked { lock }
    }

    /// A non-blocking exclusive attempt; chain [`EventKind::shared`] for
    /// `try_read`.
    pub fn try_acquire(lock: ObjId, site: Label, acquired: bool) -> Self {
        EventKind::TryAcquire {
            lock,
            site,
            acquired,
            mode: AcquireMode::Exclusive,
        }
    }

    /// A monitor wait (`Object.wait()` style).
    pub fn wait(lock: ObjId, site: Label) -> Self {
        EventKind::Wait { lock, site }
    }

    /// A monitor notify.
    pub fn notify(lock: ObjId, site: Label, all: bool) -> Self {
        EventKind::Notify { lock, site, all }
    }

    /// A condition-variable wait releasing `lock`.
    pub fn cond_wait(condvar: ObjId, lock: ObjId, site: Label) -> Self {
        EventKind::CondWait {
            condvar,
            lock,
            site,
        }
    }

    /// A condition-variable notify.
    pub fn cond_notify(condvar: ObjId, site: Label, all: bool) -> Self {
        EventKind::CondNotify { condvar, site, all }
    }

    /// Turns a mode-carrying event (`Acquire`, `Release`, `Blocked`,
    /// `TryAcquire`) into its shared (read) variant.
    ///
    /// # Panics
    ///
    /// Panics if the event kind carries no acquisition mode — calling
    /// `.shared()` on, say, a `Yield` is a programming error.
    pub fn shared(self) -> Self {
        self.with_mode(AcquireMode::Shared)
    }

    /// Sets the acquisition mode of a mode-carrying event.
    ///
    /// # Panics
    ///
    /// Panics if the event kind carries no acquisition mode.
    pub fn with_mode(mut self, new: AcquireMode) -> Self {
        match &mut self {
            EventKind::Acquire { mode, .. }
            | EventKind::Release { mode, .. }
            | EventKind::Blocked { mode, .. }
            | EventKind::TryAcquire { mode, .. } => *mode = new,
            other => panic!("event kind {other:?} carries no acquisition mode"),
        }
        self
    }

    // -- accessors -----------------------------------------------------

    /// Returns the lock involved, if this is a lock operation.
    pub fn lock(&self) -> Option<ObjId> {
        match self {
            EventKind::Acquire { lock, .. }
            | EventKind::Release { lock, .. }
            | EventKind::Reacquire { lock, .. }
            | EventKind::Rerelease { lock, .. }
            | EventKind::Blocked { lock, .. }
            | EventKind::Unblocked { lock }
            | EventKind::Wait { lock, .. }
            | EventKind::Notify { lock, .. }
            | EventKind::TryAcquire { lock, .. }
            | EventKind::CondWait { lock, .. } => Some(*lock),
            _ => None,
        }
    }

    /// Returns the acquisition mode, if this event kind carries one.
    pub fn mode(&self) -> Option<AcquireMode> {
        match self {
            EventKind::Acquire { mode, .. }
            | EventKind::Release { mode, .. }
            | EventKind::Blocked { mode, .. }
            | EventKind::TryAcquire { mode, .. } => Some(*mode),
            _ => None,
        }
    }

    /// Whether this is a first (0→1) acquisition event.
    pub fn is_acquire(&self) -> bool {
        matches!(self, EventKind::Acquire { .. })
    }
}

// ---------------------------------------------------------------------------
// Hand-written serde for EventKind.
//
// The vendored derive has no `#[serde(default, skip_serializing_if)]`,
// and the artifact contract needs exactly that: the `mode` field of
// `Acquire`/`Release`/`Blocked`/`TryAcquire` is omitted when exclusive
// (so plain-mutex traces stay byte-identical to the pre-mode format)
// and defaults to exclusive when missing (so old artifacts decode).
// These impls mirror the derive's externally-tagged layout — field
// order is declaration order — plus that one rule.
// ---------------------------------------------------------------------------

/// Serializes the optional trailing `mode` field: present iff shared.
fn mode_entries(mode: &AcquireMode) -> usize {
    if mode.is_shared() {
        1
    } else {
        0
    }
}

impl Serialize for EventKind {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        use serde::ser::SerializeStructVariant;
        const NAME: &str = "EventKind";
        macro_rules! variant {
            ($idx:expr, $tag:expr, $mode:expr, [$(($k:expr, $v:expr)),* $(,)?]) => {{
                let extra = $mode.map(mode_entries).unwrap_or(0);
                let mut len = extra;
                $(let _ = $k; len += 1;)*
                let mut state =
                    serializer.serialize_struct_variant(NAME, $idx, $tag, len)?;
                $(state.serialize_field($k, $v)?;)*
                if let Some(mode) = $mode {
                    if mode.is_shared() {
                        state.serialize_field("mode", mode)?;
                    }
                }
                state.end()
            }};
        }
        match self {
            EventKind::Acquire { lock, site, mode } => {
                variant!(0, "Acquire", Some(mode), [("lock", lock), ("site", site)])
            }
            EventKind::Release { lock, site, mode } => {
                variant!(1, "Release", Some(mode), [("lock", lock), ("site", site)])
            }
            EventKind::Reacquire { lock, site } => variant!(
                2,
                "Reacquire",
                None::<&AcquireMode>,
                [("lock", lock), ("site", site)]
            ),
            EventKind::Rerelease { lock, site } => variant!(
                3,
                "Rerelease",
                None::<&AcquireMode>,
                [("lock", lock), ("site", site)]
            ),
            EventKind::Call { site } => {
                variant!(4, "Call", None::<&AcquireMode>, [("site", site)])
            }
            EventKind::Return => serializer.serialize_unit_variant(NAME, 5, "Return"),
            EventKind::New { obj } => {
                variant!(6, "New", None::<&AcquireMode>, [("obj", obj)])
            }
            EventKind::Spawn { child, child_obj } => variant!(
                7,
                "Spawn",
                None::<&AcquireMode>,
                [("child", child), ("child_obj", child_obj)]
            ),
            EventKind::ThreadStart => serializer.serialize_unit_variant(NAME, 8, "ThreadStart"),
            EventKind::ThreadExit => serializer.serialize_unit_variant(NAME, 9, "ThreadExit"),
            EventKind::Join { target } => {
                variant!(10, "Join", None::<&AcquireMode>, [("target", target)])
            }
            EventKind::Blocked { lock, mode } => {
                variant!(11, "Blocked", Some(mode), [("lock", lock)])
            }
            EventKind::Unblocked { lock } => {
                variant!(12, "Unblocked", None::<&AcquireMode>, [("lock", lock)])
            }
            EventKind::Yield => serializer.serialize_unit_variant(NAME, 13, "Yield"),
            EventKind::Work { units } => {
                variant!(14, "Work", None::<&AcquireMode>, [("units", units)])
            }
            // Indices 15-17 are retired; the others keep their numbers.
            EventKind::Wait { lock, site } => variant!(
                18,
                "Wait",
                None::<&AcquireMode>,
                [("lock", lock), ("site", site)]
            ),
            EventKind::Notify { lock, site, all } => variant!(
                19,
                "Notify",
                None::<&AcquireMode>,
                [("lock", lock), ("site", site), ("all", all)]
            ),
            EventKind::TryAcquire {
                lock,
                site,
                acquired,
                mode,
            } => variant!(
                20,
                "TryAcquire",
                Some(mode),
                [("lock", lock), ("site", site), ("acquired", acquired)]
            ),
            EventKind::CondWait {
                condvar,
                lock,
                site,
            } => variant!(
                21,
                "CondWait",
                None::<&AcquireMode>,
                [("condvar", condvar), ("lock", lock), ("site", site)]
            ),
            EventKind::CondNotify { condvar, site, all } => variant!(
                22,
                "CondNotify",
                None::<&AcquireMode>,
                [("condvar", condvar), ("site", site), ("all", all)]
            ),
        }
    }
}

impl<'de> Deserialize<'de> for EventKind {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        use serde::__private as sp;
        let value = serde::Deserializer::__take_value(deserializer)?;
        let result: Result<Self, sp::DeError> = (move || {
            // A missing `mode` entry is an exclusive operation.
            fn opt_mode(
                entries: &mut Vec<(String, sp::Value)>,
            ) -> Result<AcquireMode, sp::DeError> {
                match entries.iter().position(|(k, _)| k == "mode") {
                    Some(i) => sp::from_value(entries.remove(i).1)
                        .map_err(|e| sp::DeError::msg(format!("field `mode`: {}", e.0))),
                    None => Ok(AcquireMode::Exclusive),
                }
            }
            let (tag, content) = sp::enum_tag(value, "EventKind")?;
            match tag.as_str() {
                // Version-1 lines also carry `held` and `context`; they
                // are read past, never into the event.
                "Acquire" => {
                    let content = sp::expect_content(content, "Acquire")?;
                    let mut entries = sp::expect_obj(content, "EventKind::Acquire")?;
                    Ok(EventKind::Acquire {
                        lock: sp::field(&mut entries, "lock")?,
                        site: sp::field(&mut entries, "site")?,
                        mode: opt_mode(&mut entries)?,
                    })
                }
                "Release" => {
                    let content = sp::expect_content(content, "Release")?;
                    let mut entries = sp::expect_obj(content, "EventKind::Release")?;
                    Ok(EventKind::Release {
                        lock: sp::field(&mut entries, "lock")?,
                        site: sp::field(&mut entries, "site")?,
                        mode: opt_mode(&mut entries)?,
                    })
                }
                "Reacquire" => {
                    let content = sp::expect_content(content, "Reacquire")?;
                    let mut entries = sp::expect_obj(content, "EventKind::Reacquire")?;
                    Ok(EventKind::Reacquire {
                        lock: sp::field(&mut entries, "lock")?,
                        site: sp::field(&mut entries, "site")?,
                    })
                }
                "Rerelease" => {
                    let content = sp::expect_content(content, "Rerelease")?;
                    let mut entries = sp::expect_obj(content, "EventKind::Rerelease")?;
                    Ok(EventKind::Rerelease {
                        lock: sp::field(&mut entries, "lock")?,
                        site: sp::field(&mut entries, "site")?,
                    })
                }
                "Call" => {
                    let content = sp::expect_content(content, "Call")?;
                    let mut entries = sp::expect_obj(content, "EventKind::Call")?;
                    Ok(EventKind::Call {
                        site: sp::field(&mut entries, "site")?,
                    })
                }
                "Return" => {
                    sp::expect_no_content(content, "Return")?;
                    Ok(EventKind::Return)
                }
                "New" => {
                    let content = sp::expect_content(content, "New")?;
                    let mut entries = sp::expect_obj(content, "EventKind::New")?;
                    Ok(EventKind::New {
                        obj: sp::field(&mut entries, "obj")?,
                    })
                }
                "Spawn" => {
                    let content = sp::expect_content(content, "Spawn")?;
                    let mut entries = sp::expect_obj(content, "EventKind::Spawn")?;
                    Ok(EventKind::Spawn {
                        child: sp::field(&mut entries, "child")?,
                        child_obj: sp::field(&mut entries, "child_obj")?,
                    })
                }
                "ThreadStart" => {
                    sp::expect_no_content(content, "ThreadStart")?;
                    Ok(EventKind::ThreadStart)
                }
                "ThreadExit" => {
                    sp::expect_no_content(content, "ThreadExit")?;
                    Ok(EventKind::ThreadExit)
                }
                "Join" => {
                    let content = sp::expect_content(content, "Join")?;
                    let mut entries = sp::expect_obj(content, "EventKind::Join")?;
                    Ok(EventKind::Join {
                        target: sp::field(&mut entries, "target")?,
                    })
                }
                "Blocked" => {
                    let content = sp::expect_content(content, "Blocked")?;
                    let mut entries = sp::expect_obj(content, "EventKind::Blocked")?;
                    Ok(EventKind::Blocked {
                        lock: sp::field(&mut entries, "lock")?,
                        mode: opt_mode(&mut entries)?,
                    })
                }
                "Unblocked" => {
                    let content = sp::expect_content(content, "Unblocked")?;
                    let mut entries = sp::expect_obj(content, "EventKind::Unblocked")?;
                    Ok(EventKind::Unblocked {
                        lock: sp::field(&mut entries, "lock")?,
                    })
                }
                "Yield" => {
                    sp::expect_no_content(content, "Yield")?;
                    Ok(EventKind::Yield)
                }
                "Work" => {
                    let content = sp::expect_content(content, "Work")?;
                    let mut entries = sp::expect_obj(content, "EventKind::Work")?;
                    Ok(EventKind::Work {
                        units: sp::field(&mut entries, "units")?,
                    })
                }
                "Wait" => {
                    let content = sp::expect_content(content, "Wait")?;
                    let mut entries = sp::expect_obj(content, "EventKind::Wait")?;
                    Ok(EventKind::Wait {
                        lock: sp::field(&mut entries, "lock")?,
                        site: sp::field(&mut entries, "site")?,
                    })
                }
                "Notify" => {
                    let content = sp::expect_content(content, "Notify")?;
                    let mut entries = sp::expect_obj(content, "EventKind::Notify")?;
                    Ok(EventKind::Notify {
                        lock: sp::field(&mut entries, "lock")?,
                        site: sp::field(&mut entries, "site")?,
                        all: sp::field(&mut entries, "all")?,
                    })
                }
                "TryAcquire" => {
                    let content = sp::expect_content(content, "TryAcquire")?;
                    let mut entries = sp::expect_obj(content, "EventKind::TryAcquire")?;
                    Ok(EventKind::TryAcquire {
                        lock: sp::field(&mut entries, "lock")?,
                        site: sp::field(&mut entries, "site")?,
                        acquired: sp::field(&mut entries, "acquired")?,
                        mode: opt_mode(&mut entries)?,
                    })
                }
                "CondWait" => {
                    let content = sp::expect_content(content, "CondWait")?;
                    let mut entries = sp::expect_obj(content, "EventKind::CondWait")?;
                    Ok(EventKind::CondWait {
                        condvar: sp::field(&mut entries, "condvar")?,
                        lock: sp::field(&mut entries, "lock")?,
                        site: sp::field(&mut entries, "site")?,
                    })
                }
                "CondNotify" => {
                    let content = sp::expect_content(content, "CondNotify")?;
                    let mut entries = sp::expect_obj(content, "EventKind::CondNotify")?;
                    Ok(EventKind::CondNotify {
                        condvar: sp::field(&mut entries, "condvar")?,
                        site: sp::field(&mut entries, "site")?,
                        all: sp::field(&mut entries, "all")?,
                    })
                }
                other => Err(sp::DeError::msg(format!(
                    "unknown variant `{other}` for EventKind"
                ))),
            }
        })();
        result.map_err(<D::Error as serde::de::Error>::custom)
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {} ", self.seq, self.thread)?;
        match &self.kind {
            EventKind::Acquire { lock, site, mode } => {
                if mode.is_shared() {
                    write!(f, "read-acquire {lock} at {site}")
                } else {
                    write!(f, "acquire {lock} at {site}")
                }
            }
            EventKind::Release { lock, site, mode } => {
                if mode.is_shared() {
                    write!(f, "read-release {lock} at {site}")
                } else {
                    write!(f, "release {lock} at {site}")
                }
            }
            EventKind::Reacquire { lock, site } => write!(f, "reacquire {lock} at {site}"),
            EventKind::Rerelease { lock, site } => write!(f, "rerelease {lock} at {site}"),
            EventKind::Call { site } => write!(f, "call at {site}"),
            EventKind::Return => write!(f, "return"),
            EventKind::New { obj } => write!(f, "new {obj}"),
            EventKind::Spawn { child, child_obj } => write!(f, "spawn {child} ({child_obj})"),
            EventKind::ThreadStart => write!(f, "start"),
            EventKind::ThreadExit => write!(f, "exit"),
            EventKind::Join { target } => write!(f, "join {target}"),
            EventKind::Blocked { lock, mode } => {
                if mode.is_shared() {
                    write!(f, "read-blocked on {lock}")
                } else {
                    write!(f, "blocked on {lock}")
                }
            }
            EventKind::Unblocked { lock } => write!(f, "unblocked from {lock}"),
            EventKind::Yield => write!(f, "yield"),
            EventKind::Work { units } => write!(f, "work {units}"),
            EventKind::Wait { lock, site } => write!(f, "wait on {lock} at {site}"),
            EventKind::Notify { lock, site, all } => {
                write!(
                    f,
                    "{} {lock} at {site}",
                    if *all { "notify-all" } else { "notify" }
                )
            }
            EventKind::TryAcquire {
                lock,
                site,
                acquired,
                mode,
            } => write!(
                f,
                "try-{}acquire {lock} at {site} ({})",
                if mode.is_shared() { "read-" } else { "" },
                if *acquired { "acquired" } else { "busy" }
            ),
            EventKind::CondWait {
                condvar,
                lock,
                site,
            } => write!(f, "cond-wait {condvar} (releasing {lock}) at {site}"),
            EventKind::CondNotify { condvar, site, all } => write!(
                f,
                "{} {condvar} at {site}",
                if *all {
                    "cond-notify-all"
                } else {
                    "cond-notify"
                }
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(s: &str) -> Label {
        Label::new(s)
    }

    #[test]
    fn lock_accessor_covers_lock_ops() {
        let lk = ObjId::new(1);
        let acq = EventKind::acquire(lk, l("a:1"));
        assert_eq!(acq.lock(), Some(lk));
        assert!(acq.is_acquire());
        assert_eq!(EventKind::release(lk, l("a:2")).lock(), Some(lk));
        assert_eq!(EventKind::Yield.lock(), None);
        assert!(!EventKind::Return.is_acquire());
        assert_eq!(EventKind::wait(lk, l("w:1")).lock(), Some(lk));
        assert_eq!(EventKind::notify(lk, l("n:1"), true).lock(), Some(lk));
        assert_eq!(EventKind::try_acquire(lk, l("t:1"), true).lock(), Some(lk));
        assert_eq!(
            EventKind::cond_wait(ObjId::new(9), lk, l("c:1")).lock(),
            Some(lk)
        );
        assert_eq!(
            EventKind::cond_notify(ObjId::new(9), l("c:2"), false).lock(),
            None
        );
    }

    #[test]
    fn builders_default_exclusive_and_shared_flips_the_mode() {
        let lk = ObjId::new(4);
        let acq = EventKind::acquire(lk, l("b:1"));
        assert_eq!(acq.mode(), Some(AcquireMode::Exclusive));
        let read = EventKind::acquire(lk, l("b:1")).shared();
        assert_eq!(read.mode(), Some(AcquireMode::Shared));
        assert_eq!(
            EventKind::blocked(lk).shared().mode(),
            Some(AcquireMode::Shared)
        );
        assert_eq!(
            EventKind::try_acquire(lk, l("b:2"), false).shared().mode(),
            Some(AcquireMode::Shared)
        );
        assert_eq!(EventKind::wait(lk, l("b:3")).mode(), None);
        assert_eq!(AcquireMode::Exclusive.as_str(), "write");
        assert_eq!(AcquireMode::Shared.as_str(), "read");
        assert_eq!(AcquireMode::default(), AcquireMode::Exclusive);
    }

    #[test]
    #[should_panic(expected = "carries no acquisition mode")]
    fn shared_on_a_modeless_kind_panics() {
        let _ = EventKind::Yield.shared();
    }

    #[test]
    fn wait_notify_serde_round_trip() {
        for kind in [
            EventKind::wait(ObjId::new(2), l("ws:1")),
            EventKind::notify(ObjId::new(2), l("ws:2"), true),
            EventKind::cond_wait(ObjId::new(5), ObjId::new(2), l("ws:3")),
            EventKind::cond_notify(ObjId::new(5), l("ws:4"), false),
        ] {
            let e = Event::new(1, ThreadId::new(0), kind);
            let json = serde_json::to_string(&e).unwrap();
            let back: Event = serde_json::from_str(&json).unwrap();
            assert_eq!(e, back);
        }
    }

    #[test]
    fn exclusive_events_serialize_without_a_mode_field() {
        // The artifact-compat contract: plain-mutex traces must be
        // byte-identical to the pre-mode format.
        let e = Event::new(
            0,
            ThreadId::new(1),
            EventKind::acquire(ObjId::new(3), l("m:1")),
        );
        let json = serde_json::to_string(&e).unwrap();
        assert!(!json.contains("mode"), "{json}");
        let shared = Event::new(
            0,
            ThreadId::new(1),
            EventKind::acquire(ObjId::new(3), l("m:1")).shared(),
        );
        let json = serde_json::to_string(&shared).unwrap();
        assert!(json.contains("\"mode\":\"Shared\""), "{json}");
    }

    #[test]
    fn missing_mode_field_deserializes_as_exclusive() {
        // A pre-mode artifact line.
        let json = r#"{"seq":0,"thread":1,"kind":{"Release":{"lock":3,"site":"m:2"}}}"#;
        let e: Event = serde_json::from_str(json).unwrap();
        assert_eq!(e.kind.mode(), Some(AcquireMode::Exclusive));
    }

    #[test]
    fn version_1_acquire_lines_read_past_held_and_context() {
        let json = r#"{"seq":4,"thread":1,"kind":{"Acquire":{"lock":3,"site":"m:4","held":[2],"context":["m:3","m:4"],"mode":"Shared"}}}"#;
        let e: Event = serde_json::from_str(json).unwrap();
        assert_eq!(e.kind, EventKind::acquire(ObjId::new(3), l("m:4")).shared());
    }

    #[test]
    fn mode_carrying_serde_round_trip() {
        let lk = ObjId::new(6);
        for kind in [
            EventKind::acquire(lk, l("rt:1")).shared(),
            EventKind::release(lk, l("rt:2")).shared(),
            EventKind::blocked(lk).shared(),
            EventKind::try_acquire(lk, l("rt:3"), true),
            EventKind::try_acquire(lk, l("rt:4"), false).shared(),
        ] {
            let e = Event::new(9, ThreadId::new(3), kind);
            let json = serde_json::to_string(&e).unwrap();
            let back: Event = serde_json::from_str(&json).unwrap();
            assert_eq!(e, back);
        }
    }

    #[test]
    fn display_is_nonempty_for_all_kinds() {
        let lk = ObjId::new(0);
        let kinds = vec![
            EventKind::acquire(lk, l("d:1")),
            EventKind::acquire(lk, l("d:1")).shared(),
            EventKind::release(lk, l("d:2")),
            EventKind::release(lk, l("d:2")).shared(),
            EventKind::reacquire(lk, l("d:3")),
            EventKind::rerelease(lk, l("d:4")),
            EventKind::Call { site: l("d:5") },
            EventKind::Return,
            EventKind::New { obj: lk },
            EventKind::Spawn {
                child: ThreadId::new(1),
                child_obj: lk,
            },
            EventKind::ThreadStart,
            EventKind::ThreadExit,
            EventKind::Join {
                target: ThreadId::new(1),
            },
            EventKind::blocked(lk),
            EventKind::blocked(lk).shared(),
            EventKind::unblocked(lk),
            EventKind::Yield,
            EventKind::Work { units: 3 },
            EventKind::wait(lk, l("d:6")),
            EventKind::notify(lk, l("d:7"), false),
            EventKind::notify(lk, l("d:8"), true),
            EventKind::try_acquire(lk, l("d:9"), true),
            EventKind::try_acquire(lk, l("d:10"), false).shared(),
            EventKind::cond_wait(ObjId::new(7), lk, l("d:11")),
            EventKind::cond_notify(ObjId::new(7), l("d:12"), true),
        ];
        for (i, k) in kinds.into_iter().enumerate() {
            let e = Event::new(i as u64, ThreadId::new(0), k);
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn serde_round_trip() {
        let e = Event::new(
            7,
            ThreadId::new(2),
            EventKind::acquire(ObjId::new(3), l("sr:1")),
        );
        let json = serde_json::to_string(&e).unwrap();
        let back: Event = serde_json::from_str(&json).unwrap();
        assert_eq!(e, back);
    }
}
