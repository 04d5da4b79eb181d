#include "apps/alexnet.hpp"

#include <array>
#include <cmath>
#include <memory>
#include <vector>

#include "common/logging.hpp"
#include "common/rng.hpp"
#include "apps/app_exec.hpp"
#include "kernels/conv2d.hpp"
#include "kernels/csr.hpp"
#include "kernels/linear.hpp"
#include "kernels/pooling.hpp"
#include "kernels/sparse_conv.hpp"

namespace bt::apps {

namespace {

using kernels::ConvShape;
using kernels::CsrMatrix;
using kernels::Shape3;
using platform::Pattern;
using platform::WorkProfile;

/** CIFAR-sized AlexNet layer plan. */
constexpr std::array<ConvShape, 4> kConvPlan{
    ConvShape{Shape3{3, 32, 32}, 64},
    ConvShape{Shape3{64, 16, 16}, 192},
    ConvShape{Shape3{192, 8, 8}, 256},
    ConvShape{Shape3{256, 4, 4}, 256},
};
constexpr int kFcIn = 256 * 2 * 2;
constexpr int kFcOut = 10;

/** Immutable network parameters shared by every TaskObject. */
struct Weights
{
    struct ConvLayer
    {
        std::vector<float> w;
        std::vector<float> b;
        CsrMatrix csr; ///< only populated in the sparse variant
    };
    std::array<ConvLayer, 4> conv;
    std::vector<float> fcW;
    std::vector<float> fcB;
    bool sparse = false;
};

std::shared_ptr<const Weights>
makeWeights(const AlexNetConfig& cfg)
{
    auto weights = std::make_shared<Weights>();
    weights->sparse = cfg.sparse;
    Rng rng(cfg.weightSeed);

    auto gaussianFill = [&rng](std::vector<float>& v, std::size_t n,
                               double scale) {
        v.resize(n);
        for (auto& x : v)
            x = static_cast<float>(rng.nextGaussian() * scale);
    };

    for (std::size_t l = 0; l < kConvPlan.size(); ++l) {
        const ConvShape& shape = kConvPlan[l];
        auto& layer = weights->conv[l];
        const double scale
            = 1.0 / std::sqrt(static_cast<double>(shape.in.c) * 9.0);
        gaussianFill(layer.w,
                     static_cast<std::size_t>(shape.weightElems()),
                     scale);
        gaussianFill(layer.b, static_cast<std::size_t>(shape.outC),
                     0.01);
        if (cfg.sparse)
            layer.csr = kernels::pruneToCsr(layer.w, shape.outC,
                                            shape.in.c * 9,
                                            cfg.density);
    }
    gaussianFill(weights->fcW,
                 static_cast<std::size_t>(kFcIn) * kFcOut,
                 1.0 / std::sqrt(static_cast<double>(kFcIn)));
    gaussianFill(weights->fcB, kFcOut, 0.01);
    return weights;
}

/** Activation buffer names along the pipeline; act0 is the input. */
std::string
actName(int i)
{
    return "act" + std::to_string(i);
}

/** Shapes of act0..act8 (conv preserves spatial, pool halves it). */
std::array<Shape3, 9>
activationShapes()
{
    std::array<Shape3, 9> shapes{};
    shapes[0] = kConvPlan[0].in;
    for (std::size_t l = 0; l < 4; ++l) {
        shapes[2 * l + 1] = kConvPlan[l].out();
        shapes[2 * l + 2] = kernels::pooledShape(kConvPlan[l].out());
    }
    return shapes;
}

void
fillInput(core::TaskObject& task, int batch, std::int64_t task_index,
          std::uint64_t seed)
{
    auto input = task.view<float>(actName(0));
    Rng rng(hashCombine(seed, static_cast<std::uint64_t>(task_index)));
    const std::size_t n = static_cast<std::size_t>(batch)
        * static_cast<std::size_t>(kConvPlan[0].in.elems());
    BT_ASSERT(input.size() >= n);
    for (std::size_t i = 0; i < n; ++i)
        input[i] = static_cast<float>(rng.nextDouble());
}

/** Serial reference of the full network for the validator. */
void
referenceForward(const Weights& weights, std::span<const float> image,
                 std::span<float> logits)
{
    std::vector<float> cur(image.begin(), image.end());
    std::vector<float> next;
    for (std::size_t l = 0; l < 4; ++l) {
        const ConvShape& shape = kConvPlan[l];
        next.assign(static_cast<std::size_t>(shape.out().elems()), 0.0f);
        if (weights.sparse) {
            kernels::sparseConvReference(shape, cur,
                                         weights.conv[l].csr,
                                         weights.conv[l].b, next);
        } else {
            kernels::conv2dReference(shape, cur, weights.conv[l].w,
                                     weights.conv[l].b, next);
        }
        cur.swap(next);
        const Shape3 pooled = kernels::pooledShape(shape.out());
        next.assign(static_cast<std::size_t>(pooled.elems()), 0.0f);
        kernels::maxpoolReference(shape.out(), cur, next);
        cur.swap(next);
    }
    kernels::linearReference(kFcIn, kFcOut, cur, weights.fcW,
                             weights.fcB, logits);
}

/**
 * Fraction of activation traffic that actually reaches DRAM: the small
 * CIFAR feature maps are mostly L2-resident between producing and
 * consuming stages, so only a slice of the nominal bytes is streamed.
 */
constexpr double kActCacheFactor = 0.35;

/**
 * The host-side direct convolution costs ~4x its useful flops: the
 * SIMD row-saxpy body (kernels/simd_body.hpp) recovers the issue-width
 * gap of the old scalar loops (which sat near 8x), but the tap-sweep
 * formulation still streams the output plane once per (ic, ky, kx) tap
 * and so stays well short of the roofline a packed-GEMM convolution
 * reaches. It was last measured at ~3.9 as the conv2dCpu ratio to a
 * packed-GEMM convolution of the same shapes (EXPERIMENTS.md); that
 * reference kernel is no longer in the tree, and the CSV anchors under
 * results/ freeze the constant: changing it moves every anchor and
 * needs a fresh reference measurement. The GPU kernel maps
 * near-roofline. This reproduces the paper's wide CPU/GPU dense gap
 * without distorting lean dense stages such as Morton encoding or
 * pooling.
 */
constexpr double kDirectConvCpuScale = 4.0;

WorkProfile
convProfile(const ConvShape& shape, int batch, bool sparse,
            std::int64_t nnz)
{
    WorkProfile w;
    const double spatial = static_cast<double>(shape.in.h) * shape.in.w;
    const double act_bytes = 4.0 * batch * kActCacheFactor
        * (static_cast<double>(shape.in.elems())
           + static_cast<double>(shape.out().elems()));
    if (sparse) {
        w.flops = 2.0 * static_cast<double>(nnz) * spatial * batch;
        w.bytes = act_bytes + 8.0 * static_cast<double>(nnz);
        w.pattern = Pattern::Sparse;
        w.parallelFraction = 0.99;
    } else {
        w.flops = 2.0 * 9.0 * shape.in.c * shape.outC * spatial * batch;
        w.bytes
            = act_bytes + 4.0 * static_cast<double>(shape.weightElems());
        w.pattern = Pattern::Dense;
        w.parallelFraction = 0.995;
        w.cpuWorkScale = kDirectConvCpuScale;
    }
    return w;
}

WorkProfile
poolProfile(const Shape3& in, int batch)
{
    const Shape3 out = kernels::pooledShape(in);
    WorkProfile w;
    w.flops = 3.0 * static_cast<double>(out.elems()) * batch;
    w.bytes = 4.0 * batch * kActCacheFactor
        * (static_cast<double>(in.elems())
           + static_cast<double>(out.elems()));
    w.pattern = Pattern::Dense;
    w.parallelFraction = 0.97;
    return w;
}

WorkProfile
fcProfile(int batch, bool sparse)
{
    WorkProfile w;
    w.flops = 2.0 * kFcIn * kFcOut * batch;
    w.bytes = 4.0 * (static_cast<double>(kFcIn) * kFcOut
                     + batch * (kFcIn + kFcOut));
    w.pattern = sparse ? Pattern::Sparse : Pattern::Dense;
    w.parallelFraction = 0.90;
    return w;
}

core::Application
buildAlexNet(const AlexNetConfig& cfg)
{
    BT_ASSERT(cfg.batch >= 1);
    const auto weights = makeWeights(cfg);
    const auto shapes = activationShapes();
    const int batch = cfg.batch;

    core::Application app(
        cfg.sparse ? "AlexNet-Sparse" : "AlexNet-Dense", "Image",
        cfg.sparse ? "Sparse Linear Algebra" : "Dense Linear Algebra");

    // TaskObject layout: every activation plus the logits. (Weights
    // live in shared_ptr closures, not in the TaskObject.)
    const auto actBytes = [&shapes, batch](int a) {
        return static_cast<std::int64_t>(
                   shapes[static_cast<std::size_t>(a)].elems())
            * batch * static_cast<std::int64_t>(sizeof(float));
    };
    app.declareBuffer({actName(0), actBytes(0), /*input=*/true});
    for (int a = 1; a < 9; ++a)
        app.declareBuffer({actName(a), actBytes(a)});
    app.declareBuffer(
        {"out", static_cast<std::int64_t>(kFcOut) * batch
                    * static_cast<std::int64_t>(sizeof(float)),
         false, /*output=*/true});

    // Stages: conv/pool x4, then the classifier.
    for (std::size_t l = 0; l < 4; ++l) {
        const ConvShape shape = kConvPlan[l];
        const int in_act = static_cast<int>(2 * l);
        const std::int64_t nnz
            = cfg.sparse ? weights->conv[l].csr.nnz() : 0;

        auto conv_body = [weights, shape, batch, l, in_act,
                          sparse = cfg.sparse](core::KernelCtx& ctx,
                                               bool gpu) {
            const auto in = ctx.task.view<const float>(actName(in_act));
            auto out = ctx.task.view<float>(actName(in_act + 1));
            const auto in_sz = static_cast<std::size_t>(
                shape.in.elems());
            const auto out_sz = static_cast<std::size_t>(
                shape.out().elems());
            for (int b = 0; b < batch; ++b) {
                const auto ib = in.subspan(
                    static_cast<std::size_t>(b) * in_sz, in_sz);
                const auto ob = out.subspan(
                    static_cast<std::size_t>(b) * out_sz, out_sz);
                if (sparse) {
                    if (gpu)
                        kernels::sparseConvGpu(deviceExec(ctx), shape,
                                               ib, weights->conv[l].csr,
                                               weights->conv[l].b, ob);
                    else
                        kernels::sparseConvCpu(
                            hostExec(ctx), shape, ib,
                            weights->conv[l].csr, weights->conv[l].b,
                            ob);
                } else {
                    if (gpu)
                        kernels::conv2dGpu(deviceExec(ctx), shape, ib,
                                           weights->conv[l].w,
                                           weights->conv[l].b, ob);
                    else
                        kernels::conv2dCpu(hostExec(ctx),
                                           shape, ib, weights->conv[l].w,
                                           weights->conv[l].b, ob);
                }
            }
        };
        core::Stage conv_stage(
            "conv" + std::to_string(l + 1),
            convProfile(shape, batch, cfg.sparse, nnz),
            [conv_body](core::KernelCtx& ctx) { conv_body(ctx, false); },
            [conv_body](core::KernelCtx& ctx) { conv_body(ctx, true); });
        conv_stage.setIo({{actName(in_act)}, {actName(in_act + 1)}});
        app.addStage(std::move(conv_stage));

        const Shape3 conv_out = shape.out();
        auto pool_body = [conv_out, batch, in_act](core::KernelCtx& ctx,
                                                   bool gpu) {
            const auto in
                = ctx.task.view<const float>(actName(in_act + 1));
            auto out = ctx.task.view<float>(actName(in_act + 2));
            const auto in_sz = static_cast<std::size_t>(
                conv_out.elems());
            const auto out_sz = static_cast<std::size_t>(
                kernels::pooledShape(conv_out).elems());
            for (int b = 0; b < batch; ++b) {
                const auto ib = in.subspan(
                    static_cast<std::size_t>(b) * in_sz, in_sz);
                const auto ob = out.subspan(
                    static_cast<std::size_t>(b) * out_sz, out_sz);
                if (gpu)
                    kernels::maxpoolGpu(deviceExec(ctx), conv_out, ib,
                                        ob);
                else
                    kernels::maxpoolCpu(hostExec(ctx),
                                        conv_out, ib, ob);
            }
        };
        core::Stage pool_stage(
            "pool" + std::to_string(l + 1), poolProfile(conv_out, batch),
            [pool_body](core::KernelCtx& ctx) { pool_body(ctx, false); },
            [pool_body](core::KernelCtx& ctx) { pool_body(ctx, true); });
        pool_stage.setIo({{actName(in_act + 1)}, {actName(in_act + 2)}});
        app.addStage(std::move(pool_stage));
    }

    auto fc_body = [weights, batch](core::KernelCtx& ctx, bool gpu) {
        const auto in = ctx.task.view<const float>(actName(8));
        auto out = ctx.task.view<float>("out");
        for (int b = 0; b < batch; ++b) {
            const auto ib = in.subspan(
                static_cast<std::size_t>(b) * kFcIn, kFcIn);
            const auto ob = out.subspan(
                static_cast<std::size_t>(b) * kFcOut, kFcOut);
            if (gpu)
                kernels::linearGpu(deviceExec(ctx), kFcIn, kFcOut, ib,
                                   weights->fcW, weights->fcB, ob);
            else
                kernels::linearCpu(hostExec(ctx), kFcIn,
                                   kFcOut, ib, weights->fcW,
                                   weights->fcB, ob);
        }
    };
    core::Stage fc_stage(
        "fc", fcProfile(batch, cfg.sparse),
        [fc_body](core::KernelCtx& ctx) { fc_body(ctx, false); },
        [fc_body](core::KernelCtx& ctx) { fc_body(ctx, true); });
    fc_stage.setIo({{actName(8)}, {"out"}});
    app.addStage(std::move(fc_stage));

    app.setTaskInput([batch](core::TaskObject& task,
                             std::int64_t task_index, std::uint64_t seed) {
        fillInput(task, batch, task_index, seed);
    });

    if (cfg.withValidator) {
        app.setValidator([weights, batch](const core::TaskObject& task)
                             -> std::string {
            const auto input = task.view<const float>(actName(0));
            const auto out = task.view<const float>("out");
            const auto in_sz = static_cast<std::size_t>(
                kConvPlan[0].in.elems());
            std::vector<float> expect(kFcOut);
            for (int b = 0; b < batch; ++b) {
                referenceForward(
                    *weights,
                    input.subspan(static_cast<std::size_t>(b) * in_sz,
                                  in_sz),
                    expect);
                for (int o = 0; o < kFcOut; ++o) {
                    const float got = out[static_cast<std::size_t>(
                        b * kFcOut + o)];
                    const float want
                        = expect[static_cast<std::size_t>(o)];
                    const float tol = 1e-3f
                        + 1e-4f * std::fabs(want);
                    if (std::fabs(got - want) > tol)
                        return "logit mismatch at image "
                            + std::to_string(b) + " class "
                            + std::to_string(o) + ": got "
                            + std::to_string(got) + " want "
                            + std::to_string(want);
                }
            }
            return "";
        });
    }
    return app;
}

} // namespace

core::Application
alexnetDense(AlexNetConfig cfg)
{
    cfg.sparse = false;
    return buildAlexNet(cfg);
}

core::Application
alexnetSparse(AlexNetConfig cfg)
{
    cfg.sparse = true;
    return buildAlexNet(cfg);
}

} // namespace bt::apps
