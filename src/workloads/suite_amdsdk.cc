/**
 * @file
 * AMD APP SDK-style suite.
 *
 * SDK samples are tutorial-scale: many were written for GPUs an order
 * of magnitude smaller than the studied 44-CU part, so a large share
 * of this suite is parallelism-starved or launch-bound at the grid's
 * high end — a key input to the paper's "benchmarks do not scale to
 * modern GPU sizes" finding.
 */

#include "archetypes.hh"
#include "registry.hh"

namespace gpuscale {
namespace workloads {

std::vector<Program>
makeAmdSdkSuite()
{
    std::vector<Program> suite;
    const std::string s = "amdsdk";

    suite.emplace_back(Program(s, "binomialoption")
        .add(tiledLds("binomial_option",
                      {.wgs = 786, .wi_per_wg = 255, .launches = 1,
                       .intensity = 1.6})));

    suite.emplace_back(Program(s, "bitonicsort")
        .add([] {
            auto k = streaming("bitonic_stage",
                               {.wgs = 512, .wi_per_wg = 256,
                                .launches = 210, .intensity = 0.4});
            k.coalescing = 0.5; // stage-dependent stride
            return k;
        }()));

    suite.emplace_back(Program(s, "blackscholes")
        .add(denseCompute("black_scholes",
                          {.wgs = 1024, .wi_per_wg = 256, .launches = 1,
                           .intensity = 0.6}))
        .add(streaming("write_results",
                       {.wgs = 1024, .wi_per_wg = 256, .launches = 1,
                        .intensity = 0.2})));

    suite.emplace_back(Program(s, "boxfilter")
        .add(smallGridCompute("sat_scan_horizontal",
                              {.wgs = 33, .wi_per_wg = 256,
                               .launches = 3, .intensity = 0.4}))
        .add([] {
            auto k = streaming("sat_scan_vertical",
                               {.wgs = 128, .wi_per_wg = 256,
                                .launches = 3, .intensity = 0.5});
            k.coalescing = 0.12; // column walk
            return k;
        }())
        .add(stencil("box_filter",
                     {.wgs = 1024, .wi_per_wg = 256, .launches = 1},
                     14.0))
        .add(tinyIterative("transpose_small",
                           {.wgs = 32, .wi_per_wg = 256,
                            .launches = 2})));

    suite.emplace_back(Program(s, "dct")
        .add(tiledLds("dct_8x8",
                      {.wgs = 4096, .wi_per_wg = 64, .launches = 1,
                       .intensity = 0.9}))
        .add(tiledLds("idct_8x8",
                      {.wgs = 4096, .wi_per_wg = 64, .launches = 1,
                       .intensity = 0.9})));

    suite.emplace_back(Program(s, "dwthaar1d")
        .add(tinyIterative("dwt_per_level",
                           {.wgs = 10, .wi_per_wg = 256,
                            .launches = 20, .intensity = 0.4}))
        .add(streaming("dwt_first_level",
                       {.wgs = 512, .wi_per_wg = 256, .launches = 1,
                        .intensity = 0.3})));

    suite.emplace_back(Program(s, "fastwalsh")
        .add(streaming("fwt_stage",
                       {.wgs = 256, .wi_per_wg = 256, .launches = 23,
                        .intensity = 0.35})));

    suite.emplace_back(Program(s, "floydwarshall")
        .add([] {
            auto k = cacheThrash("floyd_warshall_pass",
                                 {.wgs = 1024, .wi_per_wg = 256,
                                  .launches = 1024, .intensity = 0.5},
                                 16.0);
            return k;
        }()));

    suite.emplace_back(Program(s, "histogram")
        .add(reduction("histogram256",
                       {.wgs = 1024, .wi_per_wg = 256, .launches = 10},
                       0.75))
        .add(tinyIterative("histogram_merge",
                           {.wgs = 4, .wi_per_wg = 256,
                            .launches = 10}))
        .add(streaming("histogram_scale",
                       {.wgs = 256, .wi_per_wg = 256, .launches = 10,
                        .intensity = 0.2})));

    suite.emplace_back(Program(s, "matrixmultiplication")
        .add([] {
            auto k = denseCompute("mmm_naive",
                                  {.wgs = 1024, .wi_per_wg = 256,
                                   .launches = 1, .intensity = 1.4});
            k.l1_reuse = 0.30;
            k.mem_loads = 24.0;
            return k;
        }())
        .add(tiledLds("mmm_tiled",
                      {.wgs = 1024, .wi_per_wg = 256, .launches = 1,
                       .intensity = 2.0}))
        .add(denseCompute("mmm_vectorized",
                          {.wgs = 256, .wi_per_wg = 256, .launches = 1,
                           .intensity = 2.6})));

    suite.emplace_back(Program(s, "matrixtranspose")
        .add([] {
            auto k = streaming("transpose_naive",
                               {.wgs = 4096, .wi_per_wg = 256,
                                .launches = 1, .intensity = 0.1});
            k.coalescing = 0.0625; // column-major writes
            return k;
        }())
        .add(tiledLds("transpose_lds",
                      {.wgs = 4096, .wi_per_wg = 256, .launches = 1,
                       .intensity = 0.2})));

    suite.emplace_back(Program(s, "montecarloasian")
        .add(denseCompute("calc_price_paths",
                          {.wgs = 786, .wi_per_wg = 255, .launches = 37,
                           .intensity = 2.2}))
        .add(reduction("path_reduce",
                       {.wgs = 98, .wi_per_wg = 255, .launches = 37},
                       0.25))
        .add(tinyIterative("rng_seed_init",
                           {.wgs = 12, .wi_per_wg = 255,
                            .launches = 1})));

    suite.emplace_back(Program(s, "nbody")
        .add(smallGridCompute("nbody_sim",
                              {.wgs = 40, .wi_per_wg = 256,
                               .launches = 50, .intensity = 0.9}))
        .add(streaming("nbody_update",
                       {.wgs = 128, .wi_per_wg = 256, .launches = 50,
                        .intensity = 0.2}))
        .add(reduction("nbody_energy",
                       {.wgs = 32, .wi_per_wg = 256, .launches = 5},
                       0.30)));

    suite.emplace_back(Program(s, "prefixsum")
        .add(tinyIterative("group_prefixsum",
                           {.wgs = 16, .wi_per_wg = 256,
                            .launches = 40, .intensity = 0.6}))
        .add(tinyIterative("global_prefixsum",
                           {.wgs = 1, .wi_per_wg = 256,
                            .launches = 40, .intensity = 0.3})));

    suite.emplace_back(Program(s, "radixsort")
        .add(reduction("radix_histogram",
                       {.wgs = 512, .wi_per_wg = 256, .launches = 8},
                       0.60))
        .add(streaming("radix_scan_block",
                       {.wgs = 128, .wi_per_wg = 256, .launches = 8,
                        .intensity = 0.4}))
        .add(tinyIterative("radix_prefix",
                           {.wgs = 2, .wi_per_wg = 256, .launches = 8}))
        .add([] {
            auto k = streaming("radix_permute",
                               {.wgs = 512, .wi_per_wg = 256,
                                .launches = 8, .intensity = 0.6});
            k.coalescing = 0.2;
            return k;
        }())
        .add(streaming("radix_blockscan",
                       {.wgs = 128, .wi_per_wg = 256, .launches = 8,
                        .intensity = 0.3})));

    suite.emplace_back(Program(s, "recursivegaussian")
        .add([] {
            auto k = streaming("gauss_column",
                               {.wgs = 64, .wi_per_wg = 256,
                                .launches = 2, .intensity = 1.2});
            k.coalescing = 0.25;
            k.mlp = 2.0;
            return k;
        }())
        .add(tiledLds("gauss_transpose",
                      {.wgs = 1024, .wi_per_wg = 256, .launches = 2,
                       .intensity = 0.3}))
        .add(streaming("gauss_row",
                       {.wgs = 64, .wi_per_wg = 256, .launches = 2,
                        .intensity = 1.2})));

    suite.emplace_back(Program(s, "scanlargearrays")
        .add(streaming("scan_block",
                       {.wgs = 1024, .wi_per_wg = 256, .launches = 4,
                        .intensity = 0.4}))
        .add(tinyIterative("scan_block_sums",
                           {.wgs = 4, .wi_per_wg = 256,
                            .launches = 4}))
        .add(streaming("scan_add_sums",
                       {.wgs = 1024, .wi_per_wg = 256, .launches = 4,
                        .intensity = 0.2}))
        .add(streaming("scan_write",
                       {.wgs = 1024, .wi_per_wg = 256, .launches = 4,
                        .intensity = 0.2})));

    suite.emplace_back(Program(s, "simpleconvolution")
        .add(stencil("simple_convolution",
                     {.wgs = 1024, .wi_per_wg = 256, .launches = 1,
                      .intensity = 0.8}, 20.0))
        .add(streaming("pad_input",
                       {.wgs = 1024, .wi_per_wg = 256, .launches = 1,
                        .intensity = 0.2})));

    return suite;
}

} // namespace workloads
} // namespace gpuscale
