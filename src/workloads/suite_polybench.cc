/**
 * @file
 * PolyBench/GPU-style suite.
 *
 * Auto-generated dense linear algebra: large regular launches with
 * simple access functions.  Matrix-matrix kernels are compute bound,
 * matrix-vector kernels stream, and gramschmidt's per-column launches
 * make it serialize on the host — PolyBench's contribution to the
 * "does not scale" population.
 */

#include "archetypes.hh"
#include "registry.hh"

namespace gpuscale {
namespace workloads {

std::vector<Program>
makePolybenchSuite()
{
    std::vector<Program> suite;
    const std::string s = "polybench";

    suite.emplace_back(Program(s, "2mm")
        .add(denseCompute("mm2_kernel1",
                          {.wgs = 2048, .wi_per_wg = 256, .launches = 1,
                           .intensity = 1.5}))
        .add(denseCompute("mm2_kernel2",
                          {.wgs = 2048, .wi_per_wg = 256, .launches = 1,
                           .intensity = 1.5}))
        .add(streaming("mm2_scale",
                       {.wgs = 2048, .wi_per_wg = 256, .launches = 1,
                        .intensity = 0.2})));

    suite.emplace_back(Program(s, "3mm")
        .add(denseCompute("mm3_kernel1",
                          {.wgs = 2048, .wi_per_wg = 256, .launches = 1,
                           .intensity = 1.5}))
        .add(denseCompute("mm3_kernel2",
                          {.wgs = 2048, .wi_per_wg = 256, .launches = 1,
                           .intensity = 1.5}))
        .add(denseCompute("mm3_kernel3",
                          {.wgs = 2048, .wi_per_wg = 256, .launches = 1,
                           .intensity = 1.5}))
        .add(streaming("mm3_init",
                       {.wgs = 2048, .wi_per_wg = 256, .launches = 1,
                        .intensity = 0.2})));

    suite.emplace_back(Program(s, "atax")
        .add([] {
            auto k = streaming("atax_kernel1",
                               {.wgs = 512, .wi_per_wg = 256,
                                .launches = 1, .intensity = 0.8});
            k.l2_reuse = 0.60; // x vector re-read by every row
            k.shared_footprint_bytes = 64.0 * 1024;
            return k;
        }())
        .add([] {
            auto k = streaming("atax_kernel2",
                               {.wgs = 512, .wi_per_wg = 256,
                                .launches = 1, .intensity = 0.8});
            k.coalescing = 0.25; // transposed access
            return k;
        }()));

    suite.emplace_back(Program(s, "bicg")
        .add(streaming("bicg_kernel1",
                       {.wgs = 512, .wi_per_wg = 256, .launches = 1,
                        .intensity = 0.7}))
        .add([] {
            auto k = streaming("bicg_kernel2",
                               {.wgs = 512, .wi_per_wg = 256,
                                .launches = 1, .intensity = 0.7});
            k.coalescing = 0.25;
            return k;
        }()));

    suite.emplace_back(Program(s, "correlation")
        .add(streaming("corr_mean",
                       {.wgs = 128, .wi_per_wg = 256, .launches = 1,
                        .intensity = 0.4}))
        .add(denseCompute("corr_std",
                          {.wgs = 128, .wi_per_wg = 256, .launches = 1,
                           .intensity = 0.3}))
        .add(streaming("corr_center",
                       {.wgs = 2048, .wi_per_wg = 256, .launches = 1,
                        .intensity = 0.3}))
        .add([] {
            auto k = denseCompute("corr_compute",
                                  {.wgs = 2048, .wi_per_wg = 256,
                                   .launches = 1, .intensity = 1.2});
            k.l2_reuse = 0.80;
            k.footprint_bytes_per_wg = 32.0 * 1024;
            return k;
        }())
        .add(tinyIterative("corr_diag_set",
                           {.wgs = 8, .wi_per_wg = 256,
                            .launches = 1})));

    suite.emplace_back(Program(s, "covariance")
        .add(streaming("covar_mean",
                       {.wgs = 128, .wi_per_wg = 256, .launches = 1,
                        .intensity = 0.4}))
        .add(streaming("covar_center",
                       {.wgs = 2048, .wi_per_wg = 256, .launches = 1,
                        .intensity = 0.3}))
        .add([] {
            auto k = denseCompute("covar_compute",
                                  {.wgs = 2048, .wi_per_wg = 256,
                                   .launches = 1, .intensity = 1.1});
            k.l2_reuse = 0.80;
            k.footprint_bytes_per_wg = 32.0 * 1024;
            return k;
        }())
        .add(tinyIterative("covar_symmetrize",
                           {.wgs = 16, .wi_per_wg = 256,
                            .launches = 1})));

    suite.emplace_back(Program(s, "fdtd2d")
        .add(tinyIterative("fdtd_source",
                           {.wgs = 1, .wi_per_wg = 64,
                            .launches = 500}))
        .add(stencil("fdtd_step1",
                     {.wgs = 2048, .wi_per_wg = 256, .launches = 500,
                      .intensity = 0.6}, 24.0))
        .add(stencil("fdtd_step2",
                     {.wgs = 2048, .wi_per_wg = 256, .launches = 500,
                      .intensity = 0.6}, 24.0))
        .add(stencil("fdtd_step3",
                     {.wgs = 2048, .wi_per_wg = 256, .launches = 500,
                      .intensity = 0.8}, 24.0))
        .add(streaming("fdtd_boundary",
                       {.wgs = 16, .wi_per_wg = 256, .launches = 500,
                        .intensity = 0.2})));

    suite.emplace_back(Program(s, "gemm")
        .add(denseCompute("gemm_kernel",
                          {.wgs = 2048, .wi_per_wg = 256, .launches = 1,
                           .intensity = 1.6}))
        .add(streaming("gemm_beta_scale",
                       {.wgs = 2048, .wi_per_wg = 256, .launches = 1,
                        .intensity = 0.15})));

    suite.emplace_back(Program(s, "gesummv")
        .add([] {
            auto k = streaming("gesummv_kernel",
                               {.wgs = 512, .wi_per_wg = 256,
                                .launches = 1, .intensity = 0.9});
            k.l2_reuse = 0.50;
            k.shared_footprint_bytes = 64.0 * 1024;
            return k;
        }()));

    suite.emplace_back(Program(s, "gramschmidt")
        .add(tinyIterative("gs_norm",
                           {.wgs = 1, .wi_per_wg = 256,
                            .launches = 512, .intensity = 0.8}))
        .add(tinyIterative("gs_q_column",
                           {.wgs = 8, .wi_per_wg = 256,
                            .launches = 512, .intensity = 0.5}))
        .add(smallGridCompute("gs_update",
                              {.wgs = 32, .wi_per_wg = 256,
                               .launches = 512, .intensity = 0.6})));

    suite.emplace_back(Program(s, "mvt")
        .add([] {
            auto k = streaming("mvt_kernel1",
                               {.wgs = 512, .wi_per_wg = 256,
                                .launches = 1, .intensity = 0.6});
            k.l2_reuse = 0.55;
            k.shared_footprint_bytes = 64.0 * 1024;
            return k;
        }())
        .add([] {
            auto k = streaming("mvt_kernel2",
                               {.wgs = 512, .wi_per_wg = 256,
                                .launches = 1, .intensity = 0.6});
            k.coalescing = 0.25;
            return k;
        }()));

    suite.emplace_back(Program(s, "syr2k")
        .add(denseCompute("syr2k_kernel",
                          {.wgs = 2048, .wi_per_wg = 256, .launches = 1,
                           .intensity = 1.3})));

    suite.emplace_back(Program(s, "syrk")
        .add(denseCompute("syrk_kernel",
                          {.wgs = 2048, .wi_per_wg = 256, .launches = 1,
                           .intensity = 1.2})));

    suite.emplace_back(Program(s, "2dconv")
        .add(stencil("conv2d_kernel",
                     {.wgs = 4096, .wi_per_wg = 256, .launches = 1,
                      .intensity = 0.7}, 22.0))
        .add(streaming("conv2d_copy_out",
                       {.wgs = 4096, .wi_per_wg = 256, .launches = 1,
                        .intensity = 0.1})));

    suite.emplace_back(Program(s, "3dconv")
        .add(stencil("conv3d_kernel",
                     {.wgs = 8192, .wi_per_wg = 256, .launches = 1,
                      .intensity = 0.9}, 48.0)));

    return suite;
}

} // namespace workloads
} // namespace gpuscale
