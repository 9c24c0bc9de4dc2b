/**
 * @file
 * SHOC-style suite.
 *
 * SHOC mixes microbenchmarks that pin single resources (maxflops,
 * devicememory, triad) with level-2 application kernels (s3d,
 * qtclustering).  The microbenchmarks give the taxonomy clean
 * anchor points: they should land squarely in one class each.
 */

#include "archetypes.hh"
#include "registry.hh"

namespace gpuscale {
namespace workloads {

std::vector<Program>
makeShocSuite()
{
    std::vector<Program> suite;
    const std::string s = "shoc";

    suite.emplace_back(Program(s, "maxflops")
        .add(denseCompute("add1_sp",
                          {.wgs = 7040, .wi_per_wg = 256, .launches = 8,
                           .intensity = 1.0}))
        .add(denseCompute("mul1_sp",
                          {.wgs = 7040, .wi_per_wg = 256, .launches = 8,
                           .intensity = 1.0}))
        .add(denseCompute("madd1_sp",
                          {.wgs = 7040, .wi_per_wg = 256, .launches = 8,
                           .intensity = 2.0}))
        .add(denseCompute("muladd_dp",
                          {.wgs = 7040, .wi_per_wg = 256, .launches = 8,
                           .intensity = 1.5})));

    suite.emplace_back(Program(s, "devicememory")
        .add(streaming("gmem_read_coalesced",
                       {.wgs = 6144, .wi_per_wg = 256, .launches = 10,
                        .intensity = 0.1}))
        .add([] {
            auto k = streaming("gmem_read_strided",
                               {.wgs = 6144, .wi_per_wg = 256,
                                .launches = 10, .intensity = 0.1});
            k.coalescing = 0.0625; // fully strided: one word per line
            return k;
        }())
        .add([] {
            auto k = tiledLds("lmem_read",
                              {.wgs = 3072, .wi_per_wg = 256,
                               .launches = 10, .intensity = 0.4});
            k.mem_loads = 1.0;
            k.mem_stores = 1.0;
            return k;
        }()));

    suite.emplace_back(Program(s, "fft")
        .add(tiledLds("fft1d_512_fwd",
                      {.wgs = 2048, .wi_per_wg = 64, .launches = 10,
                       .intensity = 1.2}))
        .add(tiledLds("fft1d_512_inv",
                      {.wgs = 2048, .wi_per_wg = 64, .launches = 10,
                       .intensity = 1.2}))
        .add(denseCompute("fft_check",
                          {.wgs = 2048, .wi_per_wg = 64, .launches = 10,
                           .intensity = 0.25})));

    suite.emplace_back(Program(s, "gemm")
        .add(denseCompute("sgemm_nn",
                          {.wgs = 1024, .wi_per_wg = 256, .launches = 8,
                           .intensity = 2.5}))
        .add(denseCompute("sgemm_nt",
                          {.wgs = 1024, .wi_per_wg = 256, .launches = 8,
                           .intensity = 2.3})));

    suite.emplace_back(Program(s, "md")
        .add(graphTraversal("lj_force",
                            {.wgs = 288, .wi_per_wg = 256,
                             .launches = 10, .intensity = 3.5})));

    suite.emplace_back(Program(s, "md5hash")
        .add(denseCompute("md5_search",
                          {.wgs = 2560, .wi_per_wg = 256,
                           .launches = 4, .intensity = 3.4})));

    suite.emplace_back(Program(s, "reduction")
        .add(reduction("reduce_stage",
                       {.wgs = 256, .wi_per_wg = 256, .launches = 12},
                       0.40)));

    suite.emplace_back(Program(s, "scan")
        .add(streaming("scan_local",
                       {.wgs = 512, .wi_per_wg = 256, .launches = 16,
                        .intensity = 0.5}))
        .add(tinyIterative("scan_top",
                           {.wgs = 1, .wi_per_wg = 256,
                            .launches = 16}))
        .add(streaming("scan_bottom",
                       {.wgs = 512, .wi_per_wg = 256, .launches = 16,
                        .intensity = 0.3})));

    suite.emplace_back(Program(s, "sort")
        .add(reduction("radix_count",
                       {.wgs = 682, .wi_per_wg = 192, .launches = 28},
                       0.35))
        .add(streaming("radix_scan",
                       {.wgs = 171, .wi_per_wg = 192, .launches = 28,
                        .intensity = 0.4}))
        .add([] {
            auto k = streaming("radix_scatter",
                               {.wgs = 682, .wi_per_wg = 192,
                                .launches = 28, .intensity = 0.7});
            k.coalescing = 0.25; // key-dependent scatter
            return k;
        }())
        .add(tinyIterative("sort_verify",
                           {.wgs = 43, .wi_per_wg = 192,
                            .launches = 1})));

    suite.emplace_back(Program(s, "spmv")
        .add(graphTraversal("csr_scalar",
                            {.wgs = 1024, .wi_per_wg = 128,
                             .launches = 50, .intensity = 0.6}))
        .add([] {
            auto k = graphTraversal("csr_vector",
                                    {.wgs = 2048, .wi_per_wg = 128,
                                     .launches = 50, .intensity = 0.6});
            k.coalescing = 0.5; // warp-per-row improves coalescing
            k.branch_divergence = 0.2;
            return k;
        }())
        .add([] {
            auto k = streaming("ellpackr",
                               {.wgs = 1024, .wi_per_wg = 128,
                                .launches = 50, .intensity = 0.5});
            k.l2_reuse = 0.55;
            k.footprint_bytes_per_wg = 40.0 * 1024;
            return k;
        }()));

    suite.emplace_back(Program(s, "stencil2d")
        .add(stencil("stencil_kernel",
                     {.wgs = 4096, .wi_per_wg = 256, .launches = 1000,
                      .intensity = 0.8}, 26.0)));

    suite.emplace_back(Program(s, "triad")
        .add(streaming("triad_kernel",
                       {.wgs = 3200, .wi_per_wg = 128, .launches = 64,
                        .intensity = 0.15})));

    suite.emplace_back(Program(s, "s3d")
        .add(denseCompute("ratt_kernel",
                          {.wgs = 1536, .wi_per_wg = 128, .launches = 5,
                           .intensity = 1.7}))
        .add(denseCompute("ratx_kernel",
                          {.wgs = 1536, .wi_per_wg = 128, .launches = 5,
                           .intensity = 2.1}))
        .add(denseCompute("qssa_kernel",
                          {.wgs = 1536, .wi_per_wg = 128, .launches = 5,
                           .intensity = 1.1}))
        .add(denseCompute("rdsmh_kernel",
                          {.wgs = 1536, .wi_per_wg = 128, .launches = 5,
                           .intensity = 0.5}))
        .add(denseCompute("gr_base",
                          {.wgs = 1536, .wi_per_wg = 128, .launches = 5,
                           .intensity = 2.8}))
        .add(denseCompute("rdwdot_kernel",
                          {.wgs = 1536, .wi_per_wg = 128, .launches = 5,
                           .intensity = 0.4}))
        .add(denseCompute("qssab_kernel",
                          {.wgs = 1536, .wi_per_wg = 128, .launches = 5,
                           .intensity = 0.8})));

    suite.emplace_back(Program(s, "qtclustering")
        .add(graphTraversal("qtc_distances",
                            {.wgs = 416, .wi_per_wg = 64,
                             .launches = 30, .intensity = 1.4}))
        .add(reduction("qtc_reduce",
                       {.wgs = 104, .wi_per_wg = 64, .launches = 30},
                       0.50)));

    return suite;
}

} // namespace workloads
} // namespace gpuscale
