//! Memory access faults — the hardware-exception outcomes of Table I of the
//! paper that originate in the memory system.

use std::fmt;

/// A faulting memory operation.
///
/// `Segfault` and `Misaligned` correspond to the paper's `SF` and `MMA`
/// crash classes; `InvalidFree` and `OutOfMemory` surface as the `Abort`
/// class (the program/OS aborting itself).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessError {
    /// Access outside any valid region (Linux would deliver SIGSEGV).
    Segfault {
        /// The faulting address.
        addr: u64,
    },
    /// Access violating the 4-byte alignment rule (paper Table I: "memory
    /// accesses are not aligned at four bytes").
    Misaligned {
        /// The faulting address.
        addr: u64,
    },
    /// `free` of a pointer that is not a live allocation (glibc would abort).
    InvalidFree {
        /// The bogus pointer.
        addr: u64,
    },
    /// Heap exhaustion (allocation would exceed the configured heap span).
    OutOfMemory {
        /// The requested size.
        requested: u64,
    },
    /// Stack growth beyond the RLIMIT_STACK-style limit.
    StackOverflow {
        /// The stack pointer that exceeded the limit.
        sp: u64,
    },
}

impl AccessError {
    /// The faulting address, where one exists.
    pub fn addr(&self) -> Option<u64> {
        match self {
            AccessError::Segfault { addr }
            | AccessError::Misaligned { addr }
            | AccessError::InvalidFree { addr } => Some(*addr),
            AccessError::StackOverflow { sp } => Some(*sp),
            AccessError::OutOfMemory { .. } => None,
        }
    }
}

impl fmt::Display for AccessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessError::Segfault { addr } => write!(f, "segmentation fault at {addr:#x}"),
            AccessError::Misaligned { addr } => write!(f, "misaligned access at {addr:#x}"),
            AccessError::InvalidFree { addr } => write!(f, "invalid free of {addr:#x}"),
            AccessError::OutOfMemory { requested } => {
                write!(f, "out of simulated heap (requested {requested} bytes)")
            }
            AccessError::StackOverflow { sp } => write!(f, "stack overflow at sp {sp:#x}"),
        }
    }
}

impl std::error::Error for AccessError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_extraction() {
        assert_eq!(AccessError::Segfault { addr: 0x10 }.addr(), Some(0x10));
        assert_eq!(AccessError::Misaligned { addr: 3 }.addr(), Some(3));
        assert_eq!(AccessError::OutOfMemory { requested: 8 }.addr(), None);
        assert_eq!(AccessError::StackOverflow { sp: 7 }.addr(), Some(7));
    }

    #[test]
    fn display_messages() {
        let s = AccessError::Segfault { addr: 0xdead }.to_string();
        assert!(s.contains("0xdead"));
        assert!(AccessError::OutOfMemory { requested: 64 }
            .to_string()
            .contains("64"));
    }
}
