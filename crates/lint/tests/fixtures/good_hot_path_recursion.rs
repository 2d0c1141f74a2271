// Iterative hot path over an explicit stack: no self-calls. Calling a
// *different* search function, or recursing outside the hot prefixes,
// is fine.
pub fn nearest_iterative(root: usize) -> Option<usize> {
    let mut stack = vec![root];
    let mut best = None;
    while let Some(n) = stack.pop() {
        best = Some(n);
        if n > 0 {
            stack.push(n - 1);
        }
    }
    best
}

pub fn nearest_with_stats(root: usize) -> Option<usize> {
    nearest_iterative(root)
}

// Not a hot-path name: recursion allowed (e.g. tree invariant walks).
fn depth_of(node: usize) -> usize {
    if node == 0 {
        0
    } else {
        1 + depth_of(node / 2)
    }
}

pub fn height(root: usize) -> usize {
    depth_of(root)
}
