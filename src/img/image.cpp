#include "img/image.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "support/check.hpp"

namespace parc::img {

std::uint64_t Image::content_hash() const noexcept {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&](std::uint8_t byte) {
    h ^= byte;
    h *= 1099511628211ULL;
  };
  for (const auto& p : pixels_) {
    mix(p.r);
    mix(p.g);
    mix(p.b);
    mix(p.a);
  }
  return h;
}

double Image::mean_luminance() const noexcept {
  if (pixels_.empty()) return 0.0;
  double acc = 0.0;
  for (const auto& p : pixels_) {
    acc += 0.299 * p.r + 0.587 * p.g + 0.114 * p.b;
  }
  return acc / static_cast<double>(pixels_.size());
}

std::string to_string(Filter f) {
  switch (f) {
    case Filter::kBox: return "box";
    case Filter::kBilinear: return "bilinear";
    case Filter::kBicubic: return "bicubic";
  }
  return "?";
}

namespace {

/// Value noise (smoothstep-interpolated hashed lattice) sampled on the
/// pixel grid. A pixel at (x, y) reads the lattice cell (x0, y0) with
/// weights (sx, sy), where x0 = floor(u * freq), sx = smoothstep of the
/// fraction, u = x / width; likewise for y. Both depend on one axis only,
/// so they are computed once per column and once per row, and each lattice
/// point is hashed once into `values` instead of four times per pixel.
struct Axis {
  std::int64_t i0;
  double s;
};

Axis axis_at(double coord) {
  const auto i0 = static_cast<std::int64_t>(std::floor(coord));
  const double t = coord - static_cast<double>(i0);
  return {i0, t * t * (3.0 - 2.0 * t)};
}

double lattice_value(std::uint64_t seed, std::int64_t ix, std::int64_t iy) {
  SplitMix64 sm(seed ^ (static_cast<std::uint64_t>(ix) * 0x9E3779B97F4A7C15ULL) ^
                (static_cast<std::uint64_t>(iy) << 32));
  return static_cast<double>(sm.next() >> 11) * 0x1.0p-53;
}

struct Octave {
  std::uint64_t seed;
  double freq;
};

// n1, n2, n3 of a pixel, in the order the colour formula reads them.
constexpr std::array<Octave, 3> kOctaves = {{{0, 8.0}, {0xABCD, 16.0},
                                              {0x1234, 4.0}}};
// Room for x0 and y0 up to the highest frequency (16) plus the +1 corner.
// u and v are below 1, so x0 and y0 stay below freq; fill() checks anyway.
constexpr std::size_t kLatticeSide = 16 + 2;
constexpr std::size_t kColumnsPerPass = 64;

struct Lattice {
  // Only the first ny rows of `stride` points are written, by fill(), and
  // only they are read; the rest stays unset so a call clears no memory.
  std::array<double, kLatticeSide * kLatticeSide> values;
  std::size_t stride = 0;

  void fill(std::uint64_t seed, std::int64_t last_x0, std::int64_t last_y0) {
    const auto nx = static_cast<std::size_t>(last_x0) + 2;
    const auto ny = static_cast<std::size_t>(last_y0) + 2;
    PARC_CHECK(nx <= kLatticeSide && ny <= kLatticeSide);
    stride = nx;
    for (std::size_t iy = 0; iy < ny; ++iy) {
      for (std::size_t ix = 0; ix < nx; ++ix) {
        values[iy * nx + ix] = lattice_value(
            seed, static_cast<std::int64_t>(ix), static_cast<std::int64_t>(iy));
      }
    }
  }

  /// The same lerps, in the same order, as per-pixel value noise.
  [[nodiscard]] double sample(Axis col, Axis row) const {
    const double* top = &values[static_cast<std::size_t>(row.i0) * stride +
                                static_cast<std::size_t>(col.i0)];
    const double* bottom = top + stride;
    const double a = top[0] + (top[1] - top[0]) * col.s;
    const double b = bottom[0] + (bottom[1] - bottom[0]) * col.s;
    return a + (b - a) * row.s;
  }
};

std::uint8_t to_byte(double v) {
  return static_cast<std::uint8_t>(std::clamp(v, 0.0, 255.0));
}

}  // namespace

Image generate_image(std::uint32_t width, std::uint32_t height,
                     std::uint64_t seed) {
  PARC_CHECK(width >= 1 && height >= 1);
  Image img(width, height);
  const double inv_w = 1.0 / static_cast<double>(width);
  const double inv_h = 1.0 / static_cast<double>(height);
  // x0 and y0 grow with x and y, so the last column and row bound the
  // lattice each octave reads.
  const double u_last = static_cast<double>(width - 1) * inv_w;
  const double v_last = static_cast<double>(height - 1) * inv_h;
  std::array<Lattice, kOctaves.size()> lattices;
  for (std::size_t o = 0; o < kOctaves.size(); ++o) {
    lattices[o].fill(seed ^ kOctaves[o].seed,
                     axis_at(u_last * kOctaves[o].freq).i0,
                     axis_at(v_last * kOctaves[o].freq).i0);
  }
  // Column axes go into fixed scratch (written before it is read), a pass
  // of columns at a time; a pass recomputes the (three per row) row axes.
  std::array<double, kColumnsPerPass> us;
  std::array<std::array<Axis, kColumnsPerPass>, kOctaves.size()> cols;
  for (std::uint32_t x_begin = 0; x_begin < width;
       x_begin += static_cast<std::uint32_t>(kColumnsPerPass)) {
    const std::uint32_t n = std::min<std::uint32_t>(
        width - x_begin, static_cast<std::uint32_t>(kColumnsPerPass));
    for (std::uint32_t i = 0; i < n; ++i) {
      us[i] = static_cast<double>(x_begin + i) * inv_w;
      for (std::size_t o = 0; o < kOctaves.size(); ++o) {
        cols[o][i] = axis_at(us[i] * kOctaves[o].freq);
      }
    }
    for (std::uint32_t y = 0; y < height; ++y) {
      const double v = static_cast<double>(y) * inv_h;
      std::array<Axis, kOctaves.size()> rows{};
      for (std::size_t o = 0; o < kOctaves.size(); ++o) {
        rows[o] = axis_at(v * kOctaves[o].freq);
      }
      Pixel* out = &img.at(x_begin, y);
      for (std::uint32_t i = 0; i < n; ++i) {
        const double u = us[i];
        // Three octaves of value noise per channel + a base gradient.
        const double n1 = lattices[0].sample(cols[0][i], rows[0]);
        const double n2 = lattices[1].sample(cols[1][i], rows[1]);
        const double n3 = lattices[2].sample(cols[2][i], rows[2]);
        out[i] = Pixel{
            to_byte(255.0 * (0.5 * n1 + 0.3 * n2 + 0.2 * u)),
            to_byte(255.0 * (0.6 * n3 + 0.4 * v)),
            to_byte(255.0 * (0.4 * n1 + 0.3 * n3 + 0.3 * (1.0 - u))),
            255,
        };
      }
    }
  }
  return img;
}

namespace {

Image resize_box(const Image& src, std::uint32_t dw, std::uint32_t dh) {
  Image dst(dw, dh);
  const double sx = static_cast<double>(src.width()) / dw;
  const double sy = static_cast<double>(src.height()) / dh;
  for (std::uint32_t y = 0; y < dh; ++y) {
    const auto y0 = static_cast<std::uint32_t>(y * sy);
    const auto y1 = std::min(static_cast<std::uint32_t>((y + 1) * sy) + 1,
                             src.height());
    for (std::uint32_t x = 0; x < dw; ++x) {
      const auto x0 = static_cast<std::uint32_t>(x * sx);
      const auto x1 = std::min(static_cast<std::uint32_t>((x + 1) * sx) + 1,
                               src.width());
      // Integer sums of bytes are exact, as double sums were: one
      // conversion per channel gives the same bytes.
      std::uint64_t r = 0, g = 0, b = 0, a = 0;
      for (std::uint32_t yy = y0; yy < y1; ++yy) {
        for (std::uint32_t xx = x0; xx < x1; ++xx) {
          const Pixel& p = src.at(xx, yy);
          r += p.r;
          g += p.g;
          b += p.b;
          a += p.a;
        }
      }
      const std::uint64_t count =
          static_cast<std::uint64_t>(y1 - y0) * (x1 - x0);
      const double inv = count > 0 ? 1.0 / static_cast<double>(count) : 0.0;
      auto mean = [inv](std::uint64_t sum) {
        return to_byte(static_cast<double>(sum) * inv);
      };
      dst.at(x, y) = Pixel{mean(r), mean(g), mean(b), mean(a)};
    }
  }
  return dst;
}

Image resize_bilinear(const Image& src, std::uint32_t dw, std::uint32_t dh) {
  Image dst(dw, dh);
  const double sx = static_cast<double>(src.width() - 1) / std::max(dw - 1, 1u);
  const double sy =
      static_cast<double>(src.height() - 1) / std::max(dh - 1, 1u);
  for (std::uint32_t y = 0; y < dh; ++y) {
    const double fy = y * sy;
    const auto y0 = static_cast<std::uint32_t>(fy);
    const auto y1 = std::min(y0 + 1, src.height() - 1);
    const double wy = fy - y0;
    for (std::uint32_t x = 0; x < dw; ++x) {
      const double fx = x * sx;
      const auto x0 = static_cast<std::uint32_t>(fx);
      const auto x1 = std::min(x0 + 1, src.width() - 1);
      const double wx = fx - x0;
      auto lerp_channel = [&](auto get) {
        const double top = get(src.at(x0, y0)) * (1 - wx) +
                           get(src.at(x1, y0)) * wx;
        const double bot = get(src.at(x0, y1)) * (1 - wx) +
                           get(src.at(x1, y1)) * wx;
        return top * (1 - wy) + bot * wy;
      };
      dst.at(x, y) = Pixel{
          to_byte(lerp_channel([](const Pixel& p) { return double(p.r); })),
          to_byte(lerp_channel([](const Pixel& p) { return double(p.g); })),
          to_byte(lerp_channel([](const Pixel& p) { return double(p.b); })),
          to_byte(lerp_channel([](const Pixel& p) { return double(p.a); })),
      };
    }
  }
  return dst;
}

double cubic_weight(double t) {
  // Catmull-Rom kernel (a = -0.5).
  constexpr double a = -0.5;
  t = std::abs(t);
  if (t <= 1.0) return (a + 2.0) * t * t * t - (a + 3.0) * t * t + 1.0;
  if (t < 2.0) return a * t * t * t - 5.0 * a * t * t + 8.0 * a * t - 4.0 * a;
  return 0.0;
}

Image resize_bicubic(const Image& src, std::uint32_t dw, std::uint32_t dh) {
  Image dst(dw, dh);
  const double sx = static_cast<double>(src.width()) / dw;
  const double sy = static_cast<double>(src.height()) / dh;
  const auto w = static_cast<std::int64_t>(src.width());
  const auto h = static_cast<std::int64_t>(src.height());
  for (std::uint32_t y = 0; y < dh; ++y) {
    const double fy = (y + 0.5) * sy - 0.5;
    const auto iy = static_cast<std::int64_t>(std::floor(fy));
    for (std::uint32_t x = 0; x < dw; ++x) {
      const double fx = (x + 0.5) * sx - 0.5;
      const auto ix = static_cast<std::int64_t>(std::floor(fx));
      double r = 0, g = 0, b = 0, a = 0, wsum = 0;
      for (std::int64_t dy = -1; dy <= 2; ++dy) {
        for (std::int64_t dx = -1; dx <= 2; ++dx) {
          const auto px = std::clamp<std::int64_t>(ix + dx, 0, w - 1);
          const auto py = std::clamp<std::int64_t>(iy + dy, 0, h - 1);
          const double weight = cubic_weight(fx - static_cast<double>(ix + dx)) *
                                cubic_weight(fy - static_cast<double>(iy + dy));
          const Pixel& p = src.at(static_cast<std::uint32_t>(px),
                                  static_cast<std::uint32_t>(py));
          r += weight * p.r;
          g += weight * p.g;
          b += weight * p.b;
          a += weight * p.a;
          wsum += weight;
        }
      }
      const double inv = wsum != 0.0 ? 1.0 / wsum : 0.0;
      dst.at(x, y) = Pixel{to_byte(r * inv), to_byte(g * inv), to_byte(b * inv),
                           to_byte(a * inv)};
    }
  }
  return dst;
}

}  // namespace

Image resize(const Image& src, std::uint32_t dst_width,
             std::uint32_t dst_height, Filter filter) {
  PARC_CHECK(src.width() >= 1 && src.height() >= 1);
  PARC_CHECK(dst_width >= 1 && dst_height >= 1);
  switch (filter) {
    case Filter::kBox: return resize_box(src, dst_width, dst_height);
    case Filter::kBilinear: return resize_bilinear(src, dst_width, dst_height);
    case Filter::kBicubic: return resize_bicubic(src, dst_width, dst_height);
  }
  PARC_CHECK_MSG(false, "unknown filter");
  return {};
}

Extent fit_within(std::uint32_t src_w, std::uint32_t src_h,
                  std::uint32_t box) {
  PARC_CHECK(src_w >= 1 && src_h >= 1 && box >= 1);
  if (src_w >= src_h) {
    const auto h = std::max<std::uint32_t>(
        1, static_cast<std::uint32_t>(
               static_cast<std::uint64_t>(box) * src_h / src_w));
    return {box, h};
  }
  const auto w = std::max<std::uint32_t>(
      1, static_cast<std::uint32_t>(static_cast<std::uint64_t>(box) * src_w /
                                    src_h));
  return {w, box};
}

std::size_t ImageFolder::total_pixels() const noexcept {
  std::size_t total = 0;
  for (const auto& img : images) {
    total += static_cast<std::size_t>(img.width()) * img.height();
  }
  return total;
}

ImageFolder make_image_folder(std::size_t count, std::uint32_t min_side,
                              std::uint32_t max_side, std::uint64_t seed) {
  PARC_CHECK(min_side >= 1 && min_side <= max_side);
  ImageFolder folder;
  folder.images.reserve(count);
  Rng rng(seed);
  for (std::size_t i = 0; i < count; ++i) {
    // Pareto-skewed sides: most images small, a few near max (real photo
    // folders look like this, and it is what makes scheduling interesting).
    const double span = static_cast<double>(max_side - min_side + 1);
    auto side_of = [&]() {
      const double p = rng.pareto(1.0, 2.0);  // >= 1, heavy tail
      const double frac = std::min((p - 1.0) / 4.0, 1.0);
      return min_side + static_cast<std::uint32_t>(frac * (span - 1.0));
    };
    const std::uint32_t w = side_of();
    const std::uint32_t h = side_of();
    folder.images.push_back(generate_image(w, h, seed ^ (i * 0x9E3779B9ULL)));
  }
  return folder;
}

}  // namespace parc::img
