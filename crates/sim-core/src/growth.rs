//! Growth of buffers that can never hold more than a known count.

/// How many slots a buffer holding `len` elements in `len` slots should
/// add for its next element, when it will never hold more than `cap`: as
/// many again, at least 4 (what `Vec` and `VecDeque` do for elements of 2
/// to 1 024 bytes), but never past `cap`. Such a buffer grows in as many
/// steps as plain doubling would, and once full holds room for exactly
/// `cap` elements rather than for the next power of two.
///
/// # Panics
///
/// Panics if `len >= cap`: a buffer at its cap takes nothing more.
///
/// # Example
///
/// ```
/// let mut room = Vec::new();
/// let mut len = 0;
/// while len < 50 {
///     len += sim_core::growth::toward_cap(len, 50);
///     room.push(len);
/// }
/// assert_eq!(room, [4, 8, 16, 32, 50]);
/// ```
pub fn toward_cap(len: usize, cap: usize) -> usize {
    assert!(len < cap, "a buffer of {len} at its cap of {cap} does not grow");
    len.max(4).min(cap - len)
}
