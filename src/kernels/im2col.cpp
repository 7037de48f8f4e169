#include "kernels/im2col.hpp"

#include "kernels/tuning.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "runtime/parallel.hpp"

#include <cassert>

namespace amret::kernels {

using tensor::ConvGeom;
using tensor::Shape;
using tensor::Tensor;

namespace {

/// Unfolds the receptive fields of one image's output pixels. \p px points
/// at the first channel to extract, \p ch_stride is the element stride
/// between extracted channels and \p channels how many to extract — so the
/// same core serves full im2col (all channels) and the depthwise
/// single-channel case. Out-of-image taps read 0.
void unfold_image(const float* px, std::int64_t channels, std::int64_t ch_stride,
                  const ConvGeom& geom, float* rows) {
    const std::int64_t oh = geom.out_h(), ow = geom.out_w();
    const std::int64_t patch = channels * geom.kernel * geom.kernel;
    for (std::int64_t oy = 0; oy < oh; ++oy) {
        for (std::int64_t ox = 0; ox < ow; ++ox) {
            float* row = rows + (oy * ow + ox) * patch;
            std::int64_t idx = 0;
            for (std::int64_t c = 0; c < channels; ++c) {
                const float* pc = px + c * ch_stride;
                for (std::int64_t ky = 0; ky < geom.kernel; ++ky) {
                    const std::int64_t iy = oy * geom.stride + ky - geom.pad;
                    for (std::int64_t kx = 0; kx < geom.kernel; ++kx, ++idx) {
                        const std::int64_t ix = ox * geom.stride + kx - geom.pad;
                        row[idx] = (iy >= 0 && iy < geom.in_h && ix >= 0 &&
                                    ix < geom.in_w)
                                       ? pc[iy * geom.in_w + ix]
                                       : 0.0f;
                    }
                }
            }
        }
    }
}

} // namespace

void im2col(const float* x, const ConvGeom& geom, float* cols) {
    AMRET_OBS_SPAN("kernels.im2col");
    AMRET_OBS_COUNT("kernels.im2col.images", geom.batch);
    const std::int64_t image = geom.in_ch * geom.in_h * geom.in_w;
    const std::int64_t rows_per_image = geom.out_h() * geom.out_w();
    runtime::parallel_for(0, geom.batch, tune::kGrainChannel,
                          [&](std::int64_t nb, std::int64_t ne) {
        for (std::int64_t n = nb; n < ne; ++n)
            unfold_image(x + n * image, geom.in_ch, geom.in_h * geom.in_w, geom,
                         cols + n * rows_per_image * geom.patch());
    });
}

Tensor im2col(const Tensor& x, const ConvGeom& geom) {
    assert(x.rank() == 4);
    assert(x.dim(0) == geom.batch && x.dim(1) == geom.in_ch &&
           x.dim(2) == geom.in_h && x.dim(3) == geom.in_w);
    Tensor cols(Shape{geom.positions(), geom.patch()});
    im2col(x.data(), geom, cols.data());
    return cols;
}

void im2col_channel(const float* x, std::int64_t total_ch, std::int64_t channel,
                    const ConvGeom& geom, float* cols) {
    assert(geom.in_ch == 1);
    const std::int64_t rows_per_image = geom.out_h() * geom.out_w();
    const std::int64_t patch = geom.kernel * geom.kernel;
    for (std::int64_t n = 0; n < geom.batch; ++n) {
        const float* px = x + (n * total_ch + channel) * geom.in_h * geom.in_w;
        unfold_image(px, 1, 0, geom, cols + n * rows_per_image * patch);
    }
}

void col2im(const float* cols, const ConvGeom& geom, float* x) {
    AMRET_OBS_SPAN("kernels.col2im");
    AMRET_OBS_COUNT("kernels.col2im.images", geom.batch);
    const std::int64_t oh = geom.out_h(), ow = geom.out_w();
    const std::int64_t patch = geom.patch();
    const std::int64_t image = geom.in_ch * geom.in_h * geom.in_w;
    // Images fold independently (disjoint writes); taps within an image fold
    // in ascending position order, identical to the serial loop.
    runtime::parallel_for(0, geom.batch, tune::kGrainChannel,
                          [&](std::int64_t nb, std::int64_t ne) {
        for (std::int64_t n = nb; n < ne; ++n) {
            float* px = x + n * image;
            for (std::int64_t oy = 0; oy < oh; ++oy) {
                for (std::int64_t ox = 0; ox < ow; ++ox) {
                    const float* row = cols + ((n * oh + oy) * ow + ox) * patch;
                    std::int64_t idx = 0;
                    for (std::int64_t c = 0; c < geom.in_ch; ++c) {
                        for (std::int64_t ky = 0; ky < geom.kernel; ++ky) {
                            const std::int64_t iy = oy * geom.stride + ky - geom.pad;
                            for (std::int64_t kx = 0; kx < geom.kernel; ++kx, ++idx) {
                                const std::int64_t ix = ox * geom.stride + kx - geom.pad;
                                if (iy >= 0 && iy < geom.in_h && ix >= 0 &&
                                    ix < geom.in_w) {
                                    px[(c * geom.in_h + iy) * geom.in_w + ix] +=
                                        row[idx];
                                }
                            }
                        }
                    }
                }
            }
        }
    });
}

Tensor col2im(const Tensor& cols, const ConvGeom& geom) {
    assert(cols.rank() == 2);
    assert(cols.dim(0) == geom.positions() && cols.dim(1) == geom.patch());
    Tensor x(Shape{geom.batch, geom.in_ch, geom.in_h, geom.in_w});
    col2im(cols.data(), geom, x.data());
    return x;
}

void scatter_positions(const float* po, std::int64_t n, std::int64_t o,
                       std::int64_t oh, std::int64_t ow, float* y) {
    const std::int64_t spatial = oh * ow;
    runtime::parallel_for(0, n * spatial,
                          runtime::grain_for(n * spatial, tune::kGrainCopyRows),
                          [&](std::int64_t pb, std::int64_t pe) {
        for (std::int64_t p = pb; p < pe; ++p) {
            const std::int64_t i = p / spatial, s = p % spatial;
            const float* row = po + p * o;
            for (std::int64_t c = 0; c < o; ++c) y[(i * o + c) * spatial + s] = row[c];
        }
    });
}

void gather_positions(const float* y, std::int64_t n, std::int64_t o,
                      std::int64_t oh, std::int64_t ow, float* po) {
    const std::int64_t spatial = oh * ow;
    runtime::parallel_for(0, n * spatial,
                          runtime::grain_for(n * spatial, tune::kGrainCopyRows),
                          [&](std::int64_t pb, std::int64_t pe) {
        for (std::int64_t p = pb; p < pe; ++p) {
            const std::int64_t i = p / spatial, s = p % spatial;
            float* row = po + p * o;
            for (std::int64_t c = 0; c < o; ++c) row[c] = y[(i * o + c) * spatial + s];
        }
    });
}

} // namespace amret::kernels
