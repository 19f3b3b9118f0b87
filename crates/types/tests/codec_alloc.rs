//! A byte-string length prefix comes off the wire: decoding one that runs
//! past the input must fail before allocating what it claims.
//!
//! This file is its own test binary so the counting allocator below sees
//! only this test's allocations.

use bytes::{BufMut, BytesMut};
use recraft_types::codec::Decode;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// The system allocator, recording the largest single request made while
/// `RECORDING` is set.
struct MaxRequest;

static RECORDING: AtomicBool = AtomicBool::new(false);
static LARGEST: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for MaxRequest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if RECORDING.load(Ordering::Relaxed) {
            LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOC: MaxRequest = MaxRequest;

#[test]
fn oversized_prefix_errors_without_allocating_its_length() {
    let mut hostile = BytesMut::new();
    hostile.put_u32(u32::MAX);
    hostile.put_slice(&[7u8; 64]);
    let hostile = hostile.freeze();

    LARGEST.store(0, Ordering::Relaxed);
    RECORDING.store(true, Ordering::Relaxed);
    let vec = Vec::<u8>::decode(&mut hostile.clone());
    let string = String::decode(&mut hostile.clone());
    RECORDING.store(false, Ordering::Relaxed);

    assert!(vec.is_err() && string.is_err());
    // The error message allocates a little; nothing scales with the claim
    // (not even a capped up-front reservation).
    let largest = LARGEST.load(Ordering::Relaxed);
    assert!(
        largest < 4096,
        "decoding a 4 GiB prefix over 64 bytes allocated {largest} bytes at once"
    );
}
