// Image generation / resize filters / PPM round-trip / thumbnail pipeline.
#include "img/ppm.hpp"
#include "img/thumbnails.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <sstream>
#include <tuple>
#include <vector>

#include "support/rng.hpp"

namespace parc::img {
namespace {

TEST(Image, GenerationIsDeterministic) {
  const auto a = generate_image(64, 48, 42);
  const auto b = generate_image(64, 48, 42);
  EXPECT_EQ(a.content_hash(), b.content_hash());
  const auto c = generate_image(64, 48, 43);
  EXPECT_NE(a.content_hash(), c.content_hash());
}

TEST(Image, DimensionsAndPixelAccess) {
  auto img = generate_image(10, 20, 1);
  EXPECT_EQ(img.width(), 10u);
  EXPECT_EQ(img.height(), 20u);
  EXPECT_EQ(img.pixels().size(), 200u);
  img.at(3, 4) = Pixel{1, 2, 3, 4};
  EXPECT_EQ(img.at(3, 4), (Pixel{1, 2, 3, 4}));
}

TEST(Image, LuminanceNontrivial) {
  const auto img = generate_image(128, 128, 7);
  const double lum = img.mean_luminance();
  EXPECT_GT(lum, 20.0);
  EXPECT_LT(lum, 235.0);
}

class ResizeFilterTest : public ::testing::TestWithParam<Filter> {};

TEST_P(ResizeFilterTest, OutputDimensionsMatch) {
  const auto src = generate_image(97, 61, 3);
  const auto dst = resize(src, 32, 24, GetParam());
  EXPECT_EQ(dst.width(), 32u);
  EXPECT_EQ(dst.height(), 24u);
}

TEST_P(ResizeFilterTest, ConstantImageStaysConstant) {
  Image src(50, 50);
  for (std::uint32_t y = 0; y < 50; ++y) {
    for (std::uint32_t x = 0; x < 50; ++x) {
      src.at(x, y) = Pixel{100, 150, 200, 255};
    }
  }
  const auto dst = resize(src, 17, 13, GetParam());
  for (std::uint32_t y = 0; y < dst.height(); ++y) {
    for (std::uint32_t x = 0; x < dst.width(); ++x) {
      const Pixel& p = dst.at(x, y);
      ASSERT_NEAR(p.r, 100, 1);
      ASSERT_NEAR(p.g, 150, 1);
      ASSERT_NEAR(p.b, 200, 1);
    }
  }
}

TEST_P(ResizeFilterTest, MeanLuminanceRoughlyPreserved) {
  const auto src = generate_image(256, 256, 9);
  const auto dst = resize(src, 64, 64, GetParam());
  EXPECT_NEAR(dst.mean_luminance(), src.mean_luminance(),
              src.mean_luminance() * 0.1 + 3.0);
}

TEST_P(ResizeFilterTest, UpscaleWorks) {
  const auto src = generate_image(16, 16, 5);
  const auto dst = resize(src, 64, 64, GetParam());
  EXPECT_EQ(dst.width(), 64u);
  EXPECT_NEAR(dst.mean_luminance(), src.mean_luminance(),
              src.mean_luminance() * 0.15 + 5.0);
}

INSTANTIATE_TEST_SUITE_P(AllFilters, ResizeFilterTest,
                         ::testing::Values(Filter::kBox, Filter::kBilinear,
                                           Filter::kBicubic),
                         [](const ::testing::TestParamInfo<Filter>& info) {
                           return to_string(info.param);
                         });

// Oracles: the straightforward per-pixel value-noise render and the
// double-accumulating box filter. The library's lattice-table render and
// integer box sums must reproduce them byte for byte, so thumbnails and the
// serve backend's cached content hashes never change with the kernel.
namespace oracle {

double value_noise(std::uint64_t seed, double x, double y) {
  auto lattice = [&](std::int64_t ix, std::int64_t iy) {
    SplitMix64 sm(seed ^ (static_cast<std::uint64_t>(ix) * 0x9E3779B97F4A7C15ULL) ^
                  (static_cast<std::uint64_t>(iy) << 32));
    return static_cast<double>(sm.next() >> 11) * 0x1.0p-53;
  };
  const auto x0 = static_cast<std::int64_t>(std::floor(x));
  const auto y0 = static_cast<std::int64_t>(std::floor(y));
  const double fx = x - static_cast<double>(x0);
  const double fy = y - static_cast<double>(y0);
  auto smooth = [](double t) { return t * t * (3.0 - 2.0 * t); };
  const double sx = smooth(fx);
  const double sy = smooth(fy);
  const double v00 = lattice(x0, y0);
  const double v10 = lattice(x0 + 1, y0);
  const double v01 = lattice(x0, y0 + 1);
  const double v11 = lattice(x0 + 1, y0 + 1);
  const double a = v00 + (v10 - v00) * sx;
  const double b = v01 + (v11 - v01) * sx;
  return a + (b - a) * sy;
}

std::uint8_t to_byte(double v) {
  return static_cast<std::uint8_t>(std::clamp(v, 0.0, 255.0));
}

Image generate_image(std::uint32_t width, std::uint32_t height,
                     std::uint64_t seed) {
  Image img(width, height);
  const double inv_w = 1.0 / static_cast<double>(width);
  const double inv_h = 1.0 / static_cast<double>(height);
  for (std::uint32_t y = 0; y < height; ++y) {
    for (std::uint32_t x = 0; x < width; ++x) {
      const double u = static_cast<double>(x) * inv_w;
      const double v = static_cast<double>(y) * inv_h;
      const double n1 = value_noise(seed, u * 8, v * 8);
      const double n2 = value_noise(seed ^ 0xABCD, u * 16, v * 16);
      const double n3 = value_noise(seed ^ 0x1234, u * 4, v * 4);
      img.at(x, y) = Pixel{
          to_byte(255.0 * (0.5 * n1 + 0.3 * n2 + 0.2 * u)),
          to_byte(255.0 * (0.6 * n3 + 0.4 * v)),
          to_byte(255.0 * (0.4 * n1 + 0.3 * n3 + 0.3 * (1.0 - u))),
          255,
      };
    }
  }
  return img;
}

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
      double r = 0, g = 0, b = 0, a = 0;
      int count = 0;
      for (std::uint32_t yy = y0; yy < y1; ++yy) {
        for (std::uint32_t xx = x0; xx < x1; ++xx) {
          const Pixel& p = src.at(xx, yy);
          r += p.r;
          g += p.g;
          b += p.b;
          a += p.a;
          ++count;
        }
      }
      const double inv = count > 0 ? 1.0 / count : 0.0;
      dst.at(x, y) = Pixel{to_byte(r * inv), to_byte(g * inv), to_byte(b * inv),
                           to_byte(a * inv)};
    }
  }
  return dst;
}

}  // namespace oracle

/// Index of the first differing pixel, or -1 when the images are equal.
std::int64_t first_mismatch(const Image& got, const Image& want) {
  if (got.width() != want.width() || got.height() != want.height()) return 0;
  const auto& g = got.pixels();
  const auto& w = want.pixels();
  const auto it = std::mismatch(g.begin(), g.end(), w.begin()).first;
  return it == g.end() ? -1 : it - g.begin();
}

TEST(ImageParity, RenderMatchesPerPixelValueNoise) {
  std::vector<std::tuple<std::uint32_t, std::uint32_t>> sizes = {
      {1, 1}, {1, 2}, {2, 1}, {1, 300}, {300, 1}, {1, 97}, {97, 1},
      {2, 2}, {3, 5}, {7, 3}, {8, 8}, {12, 12}, {16, 16}, {17, 15}, {24, 24},
      {63, 64}, {64, 65}, {129, 7}, {5, 257}, {300, 300}, {299, 131}};
  Rng rng(20260);
  for (int i = 0; i < 60; ++i) {
    sizes.emplace_back(static_cast<std::uint32_t>(rng.range(1, 300)),
                       static_cast<std::uint32_t>(rng.range(1, 300)));
  }
  for (const auto& [w, h] : sizes) {
    for (int s = 0; s < 3; ++s) {
      const std::uint64_t seed = rng.bits();
      const std::int64_t at =
          first_mismatch(generate_image(w, h, seed),
                         oracle::generate_image(w, h, seed));
      ASSERT_EQ(at, -1) << w << "x" << h << " seed " << seed;
    }
  }
}

TEST(ImageParity, BoxResizeMatchesDoubleAccumulation) {
  // The serve backend's shapes (16 -> 8 in the benchmark, 24 -> 8 by
  // default, 12 -> 4 and 8 -> 4 in tests), then random scales: half down
  // (to at most the source side), half up (to at most twice it).
  std::vector<std::array<std::uint32_t, 4>> cases = {
      {16, 16, 8, 8}, {24, 24, 8, 8}, {12, 12, 4, 4}, {8, 8, 4, 4}};
  Rng rng(4242);
  for (int i = 0; i < 100; ++i) {
    const auto sw = static_cast<std::uint32_t>(rng.range(1, 300));
    const auto sh = static_cast<std::uint32_t>(rng.range(1, 300));
    const std::int64_t scale = (i & 1) != 0 ? 2 : 1;
    const auto dw = static_cast<std::uint32_t>(rng.range(1, scale * sw));
    const auto dh = static_cast<std::uint32_t>(rng.range(1, scale * sh));
    cases.push_back({sw, sh, dw, dh});
  }
  for (const auto& [sw, sh, dw, dh] : cases) {
    for (int s = 0; s < 3; ++s) {
      const Image src = generate_image(sw, sh, rng.bits());
      const std::int64_t at = first_mismatch(resize(src, dw, dh, Filter::kBox),
                                             oracle::resize_box(src, dw, dh));
      ASSERT_EQ(at, -1) << sw << "x" << sh << " -> " << dw << "x" << dh;
    }
  }
}

TEST(FitWithin, PreservesAspect) {
  const auto landscape = fit_within(400, 200, 100);
  EXPECT_EQ(landscape.width, 100u);
  EXPECT_EQ(landscape.height, 50u);
  const auto portrait = fit_within(200, 400, 100);
  EXPECT_EQ(portrait.width, 50u);
  EXPECT_EQ(portrait.height, 100u);
  const auto square = fit_within(300, 300, 64);
  EXPECT_EQ(square.width, 64u);
  EXPECT_EQ(square.height, 64u);
}

TEST(FitWithin, ExtremeAspectNeverZero) {
  const auto e = fit_within(10000, 3, 64);
  EXPECT_GE(e.height, 1u);
}

TEST(ImageFolder, DeterministicAndWithinBounds) {
  const auto folder = make_image_folder(20, 32, 256, 99);
  EXPECT_EQ(folder.images.size(), 20u);
  for (const auto& img : folder.images) {
    EXPECT_GE(img.width(), 32u);
    EXPECT_LE(img.width(), 256u);
    EXPECT_GE(img.height(), 32u);
    EXPECT_LE(img.height(), 256u);
  }
  const auto again = make_image_folder(20, 32, 256, 99);
  EXPECT_EQ(folder.total_pixels(), again.total_pixels());
}

TEST(Ppm, RoundTripPreservesRgb) {
  const auto original = generate_image(37, 21, 8);
  std::stringstream buffer;
  write_ppm(original, buffer);
  const auto back = read_ppm(buffer);
  ASSERT_EQ(back.width(), original.width());
  ASSERT_EQ(back.height(), original.height());
  for (std::uint32_t y = 0; y < original.height(); ++y) {
    for (std::uint32_t x = 0; x < original.width(); ++x) {
      const Pixel& a = original.at(x, y);
      const Pixel& b = back.at(x, y);
      ASSERT_EQ(a.r, b.r);
      ASSERT_EQ(a.g, b.g);
      ASSERT_EQ(a.b, b.b);
    }
  }
}

TEST(Ppm, HeaderHasExpectedShape) {
  const auto img = generate_image(4, 2, 1);
  std::stringstream buffer;
  write_ppm(img, buffer);
  std::string magic, dims;
  buffer >> magic;
  EXPECT_EQ(magic, "P6");
}

TEST(Ppm, CommentsInHeaderAreSkipped) {
  std::stringstream buffer;
  buffer << "P6\n# a comment\n2 1\n255\n";
  buffer.write("\x01\x02\x03\x04\x05\x06", 6);
  const auto img = read_ppm(buffer);
  EXPECT_EQ(img.width(), 2u);
  EXPECT_EQ(img.at(1, 0).b, 6);
}

TEST(Ppm, RejectsWrongMagic) {
  std::stringstream buffer;
  buffer << "P3\n2 2\n255\n";
  EXPECT_DEATH((void)read_ppm(buffer), "P6");
}

TEST(Ppm, RejectsTruncatedPixels) {
  std::stringstream buffer;
  buffer << "P6\n4 4\n255\nxx";
  EXPECT_DEATH((void)read_ppm(buffer), "truncated");
}

TEST(Ppm, FileRoundTrip) {
  const auto original = generate_image(16, 16, 3);
  const std::string path = "/tmp/parc_ppm_test.ppm";
  save_ppm(original, path);
  const auto back = load_ppm(path);
  EXPECT_EQ(back.content_hash() != 0, true);
  EXPECT_EQ(back.width(), 16u);
  EXPECT_EQ(back.at(5, 5).r, original.at(5, 5).r);
}

class ThumbnailStrategyTest
    : public ::testing::TestWithParam<ThumbnailStrategy> {};

TEST_P(ThumbnailStrategyTest, DeliversAllThumbnailsToModel) {
  ptask::Runtime rt(ptask::Runtime::Config{2, {}});
  gui::EventLoop loop;
  gui::ListModel<Image> gallery(loop);
  const auto folder = make_image_folder(12, 16, 64, 3);
  const auto run = render_gallery(folder, 32, Filter::kBilinear, GetParam(),
                                  loop, gallery, rt);
  EXPECT_EQ(run.thumbnails, 12u);
  const auto items = gallery.snapshot();
  ASSERT_EQ(items.size(), 12u);
  for (const auto& thumb : items) {
    EXPECT_LE(thumb.width(), 32u);
    EXPECT_LE(thumb.height(), 32u);
    EXPECT_GE(std::max(thumb.width(), thumb.height()), 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, ThumbnailStrategyTest,
    ::testing::Values(ThumbnailStrategy::kOnEventThread,
                      ThumbnailStrategy::kSingleWorker,
                      ThumbnailStrategy::kThreadPerImage,
                      ThumbnailStrategy::kPTaskMulti),
    [](const ::testing::TestParamInfo<ThumbnailStrategy>& info) {
      std::string name = to_string(info.param);
      for (auto& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

TEST(ThumbnailPipeline, OffEdtStrategiesKeepThumbnailContentEqual) {
  // Any strategy must produce the same set of thumbnail hashes.
  ptask::Runtime rt(ptask::Runtime::Config{2, {}});
  const auto folder = make_image_folder(8, 16, 48, 5);
  auto hashes_for = [&](ThumbnailStrategy s) {
    gui::EventLoop loop;
    gui::ListModel<Image> gallery(loop);
    render_gallery(folder, 24, Filter::kBox, s, loop, gallery, rt);
    std::vector<std::uint64_t> hashes;
    for (const auto& t : gallery.snapshot()) hashes.push_back(t.content_hash());
    std::sort(hashes.begin(), hashes.end());
    return hashes;
  };
  const auto a = hashes_for(ThumbnailStrategy::kSingleWorker);
  const auto b = hashes_for(ThumbnailStrategy::kPTaskMulti);
  const auto c = hashes_for(ThumbnailStrategy::kThreadPerImage);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
}

}  // namespace
}  // namespace parc::img
