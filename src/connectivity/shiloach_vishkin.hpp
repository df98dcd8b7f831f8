#pragma once

/// \file shiloach_vishkin.hpp
/// Forwarding header for bench/e2e/bench_e2e.cpp's normalize_labels: the
/// benchmark's sources change only with the benchmark, whose next change
/// includes connectivity/components.hpp there and deletes this file.
/// Shiloach-Vishkin itself is paper/shiloach_vishkin.hpp.

#include "connectivity/components.hpp"
