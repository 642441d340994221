// Host peak probes: the memory bandwidth and arithmetic rate the roofline
// fractions of the traced run are measured against. Both run on the
// repository's thread pool, at the thread count the kernels use, and are
// compiled with the same flags as the kernels (they link swat_core's
// public compile options).
#pragma once

namespace perfbench {

/// STREAM triad a[i] = b[i] + s * c[i] over three 16 MiB double arrays
/// (well beyond the last-level cache), best of several passes. Counts 24
/// bytes per element (two reads, one write; write-allocate not counted).
double triad_gbps();

/// Peak single-precision multiply-add rate: independent a = a * m + c
/// chains on every thread, wide enough to fill the vector units the build
/// targets. Counts two flops per multiply-add.
double fma_gflops();

}  // namespace perfbench
