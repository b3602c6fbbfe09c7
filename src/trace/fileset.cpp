#include "trace/fileset.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iterator>

namespace wsched::trace {

SpecWebFileSet::SpecWebFileSet() {
  // SPECweb96 directory layout: class 0 holds files of 0.1..0.9 KB... in
  // practice the commonly cited sizes are multiples within each decade:
  // class c has 9 files of sizes (i+1) * 10^c KB / 10 for i in 0..8, i.e.
  // class 0: 102..921 bytes? The benchmark's published layout is
  // class 0: 0.1 KB steps up to 0.9 KB, class 1: 1..9 KB, class 2:
  // 10..90 KB, class 3: 100..900 KB.
  int idx = 0;
  double base = 102.4;  // 0.1 KB
  for (int c = 0; c < kClasses; ++c) {
    for (int i = 1; i <= kFilesPerClass; ++i) {
      files_[idx].size_bytes =
          static_cast<std::uint32_t>(std::lround(base * i));
      files_[idx].size_class = c;
      ++idx;
    }
    base *= 10.0;
  }
}

int SpecWebFileSet::closest_file(std::uint32_t size_bytes) const {
  // Sizes strictly increase, so the closest file is the first one at or
  // above the size or the one just below it; the lower wins a tie.
  const auto above = std::lower_bound(
      files_.begin(), files_.end(), size_bytes,
      [](const SpecFile& file, std::uint32_t size) {
        return file.size_bytes < size;
      });
  const auto hi = static_cast<int>(above - files_.begin());
  if (hi == 0) return 0;
  if (hi == kFileCount) return hi - 1;
  const std::uint32_t below_delta = size_bytes - std::prev(above)->size_bytes;
  const std::uint32_t above_delta = above->size_bytes - size_bytes;
  return above_delta < below_delta ? hi : hi - 1;
}

int SpecWebFileSet::sample(Rng& rng) const {
  const double u = rng.uniform();
  double acc = 0.0;
  int cls = kClasses - 1;
  const auto mix = class_mix();
  for (int c = 0; c < kClasses; ++c) {
    acc += mix[c];
    if (u < acc) {
      cls = c;
      break;
    }
  }
  const int within = static_cast<int>(rng.uniform_int(kFilesPerClass));
  return cls * kFilesPerClass + within;
}

}  // namespace wsched::trace
