// Synthetic image substrate for the thumbnail experiments (project 1).
//
// The paper's students opened folders of photos; we generate procedural
// RGBA images deterministically instead (same decode-scale-encode compute
// shape, no binary assets), and provide the box/bilinear/bicubic scalers a
// thumbnail pipeline needs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "support/rng.hpp"

namespace parc::img {

struct Pixel {
  std::uint8_t r = 0;
  std::uint8_t g = 0;
  std::uint8_t b = 0;
  std::uint8_t a = 255;

  bool operator==(const Pixel&) const = default;
};

class Image {
 public:
  Image() = default;
  Image(std::uint32_t width, std::uint32_t height)
      : width_(width), height_(height), pixels_(static_cast<std::size_t>(width) * height) {}

  [[nodiscard]] std::uint32_t width() const noexcept { return width_; }
  [[nodiscard]] std::uint32_t height() const noexcept { return height_; }

  [[nodiscard]] Pixel& at(std::uint32_t x, std::uint32_t y) noexcept {
    return pixels_[static_cast<std::size_t>(y) * width_ + x];
  }
  [[nodiscard]] const Pixel& at(std::uint32_t x, std::uint32_t y) const noexcept {
    return pixels_[static_cast<std::size_t>(y) * width_ + x];
  }

  [[nodiscard]] const std::vector<Pixel>& pixels() const noexcept {
    return pixels_;
  }

  /// FNV-1a over the pixel bytes: cheap content fingerprint for tests.
  [[nodiscard]] std::uint64_t content_hash() const noexcept;

  /// Mean luminance in [0, 255] (Rec.601 weights).
  [[nodiscard]] double mean_luminance() const noexcept;

 private:
  std::uint32_t width_ = 0;
  std::uint32_t height_ = 0;
  std::vector<Pixel> pixels_;
};

enum class Filter { kBox, kBilinear, kBicubic };

[[nodiscard]] std::string to_string(Filter f);

/// Procedural "photo": layered value-noise gradients, deterministic in seed.
/// Three octaves (lattice frequency 8, 16 and 4 across the image). Each
/// lattice point is hashed once per call into a fixed per-octave table, and
/// each pixel does three 4-point lerps from it; the bytes are identical to
/// hashing the four corners per pixel (per-pixel value noise). Allocates
/// nothing beyond the returned Image.
[[nodiscard]] Image generate_image(std::uint32_t width, std::uint32_t height,
                                   std::uint64_t seed);

/// Scale to the target size with the chosen filter. Aspect is the caller's
/// problem (thumbnail pipelines preserve it via fit_within).
[[nodiscard]] Image resize(const Image& src, std::uint32_t dst_width,
                           std::uint32_t dst_height,
                           Filter filter = Filter::kBilinear);

/// Largest (w, h) with the source aspect ratio fitting in a square box.
struct Extent {
  std::uint32_t width;
  std::uint32_t height;
};
[[nodiscard]] Extent fit_within(std::uint32_t src_w, std::uint32_t src_h,
                                std::uint32_t box);

/// A folder of images with sizes drawn from a seeded, skewed distribution
/// (a few large "photos", many small ones) — the workload generator the
/// thumbnail benches sweep.
struct ImageFolder {
  std::vector<Image> images;
  [[nodiscard]] std::size_t total_pixels() const noexcept;
};
[[nodiscard]] ImageFolder make_image_folder(std::size_t count,
                                            std::uint32_t min_side,
                                            std::uint32_t max_side,
                                            std::uint64_t seed);

}  // namespace parc::img
