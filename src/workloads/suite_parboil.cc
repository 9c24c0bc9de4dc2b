/**
 * @file
 * Parboil-style suite.
 *
 * Parboil's applications skew toward throughput kernels with large,
 * regular launches (sgemm, lbm, stencil), plus irregular standouts
 * (bfs, histo's contended histogramming, mri-gridding's scatter).
 */

#include "archetypes.hh"
#include "registry.hh"

namespace gpuscale {
namespace workloads {

std::vector<Program>
makeParboilSuite()
{
    std::vector<Program> suite;
    const std::string s = "parboil";

    suite.emplace_back(Program(s, "bfs")
        .add(graphTraversal("bfs_frontier",
                            {.wgs = 256, .wi_per_wg = 256,
                             .launches = 22, .intensity = 1.0}))
        .add(graphTraversal("bfs_global",
                            {.wgs = 1024, .wi_per_wg = 256,
                             .launches = 4, .intensity = 1.5}))
        .add(tinyIterative("frontier_flag",
                           {.wgs = 1, .wi_per_wg = 64,
                            .launches = 22})));

    suite.emplace_back(Program(s, "cutcp")
        .add(tiledLds("cutoff_potential",
                      {.wgs = 1331, .wi_per_wg = 128, .launches = 11,
                       .intensity = 2.4}))
        .add(streaming("region_scatter",
                       {.wgs = 512, .wi_per_wg = 256, .launches = 11,
                        .intensity = 0.5}))
        .add(tinyIterative("setup_lattice",
                           {.wgs = 24, .wi_per_wg = 256,
                            .launches = 11})));

    suite.emplace_back(Program(s, "histo")
        .add(streaming("histo_prescan",
                       {.wgs = 64, .wi_per_wg = 512, .launches = 20,
                        .intensity = 0.5}))
        .add(reduction("histo_intermediate",
                       {.wgs = 323, .wi_per_wg = 512, .launches = 20},
                       0.85))
        .add(reduction("histo_main",
                       {.wgs = 84, .wi_per_wg = 768, .launches = 20},
                       0.90))
        .add(streaming("histo_final",
                       {.wgs = 126, .wi_per_wg = 512, .launches = 20,
                        .intensity = 0.3}))
        .add(tinyIterative("histo_clear",
                           {.wgs = 42, .wi_per_wg = 256,
                            .launches = 20})));

    suite.emplace_back(Program(s, "lbm")
        .add(streaming("perform_stream_collide",
                       {.wgs = 4096, .wi_per_wg = 128, .launches = 3000,
                        .intensity = 2.0}))
        .add(streaming("init_grid",
                       {.wgs = 4096, .wi_per_wg = 128, .launches = 2,
                        .intensity = 0.3})));

    suite.emplace_back(Program(s, "mri-gridding")
        .add(reduction("binning",
                       {.wgs = 1024, .wi_per_wg = 256, .launches = 1},
                       0.45))
        .add(pointerChase("reorder",
                          {.wgs = 1024, .wi_per_wg = 256, .launches = 1,
                           .intensity = 0.8}))
        .add(tinyIterative("scan_small",
                           {.wgs = 8, .wi_per_wg = 512, .launches = 3}))
        .add(streaming("scan_large",
                       {.wgs = 512, .wi_per_wg = 512, .launches = 3,
                        .intensity = 0.6}))
        .add(graphTraversal("gridding_gpu",
                            {.wgs = 512, .wi_per_wg = 256,
                             .launches = 1, .intensity = 2.6}))
        .add(streaming("uniform_add",
                       {.wgs = 512, .wi_per_wg = 512, .launches = 3,
                        .intensity = 0.2})));

    suite.emplace_back(Program(s, "mri-q")
        .add(smallGridCompute("compute_phi_mag",
                              {.wgs = 12, .wi_per_wg = 512,
                               .launches = 1, .intensity = 0.4}))
        .add(denseCompute("compute_q",
                          {.wgs = 128, .wi_per_wg = 256, .launches = 16,
                           .intensity = 2.2}))
        .add(streaming("memcpy_kernel",
                       {.wgs = 128, .wi_per_wg = 256, .launches = 16,
                        .intensity = 0.2})));

    suite.emplace_back(Program(s, "sad")
        .add(tiledLds("mb_sad_calc",
                      {.wgs = 1584, .wi_per_wg = 61, .launches = 1,
                       .intensity = 1.1}))
        .add(streaming("larger_sad_calc_8",
                       {.wgs = 396, .wi_per_wg = 128, .launches = 1,
                        .intensity = 0.5}))
        .add(streaming("larger_sad_calc_16",
                       {.wgs = 99, .wi_per_wg = 128, .launches = 1,
                        .intensity = 0.5}))
        .add(tinyIterative("sad_pack",
                           {.wgs = 25, .wi_per_wg = 128,
                            .launches = 4})));

    suite.emplace_back(Program(s, "sgemm")
        .add(denseCompute("sgemm_nt",
                          {.wgs = 528, .wi_per_wg = 128, .launches = 1,
                           .intensity = 2.8})));

    suite.emplace_back(Program(s, "spmv")
        .add(graphTraversal("spmv_jds",
                            {.wgs = 578, .wi_per_wg = 192,
                             .launches = 50, .intensity = 0.9})));

    suite.emplace_back(Program(s, "stencil")
        .add(stencil("block2d_reg_tiling",
                     {.wgs = 2048, .wi_per_wg = 256, .launches = 100,
                      .intensity = 1.0}, 30.0)));

    suite.emplace_back(Program(s, "tpacf")
        .add(tiledLds("gen_hists",
                      {.wgs = 201, .wi_per_wg = 256, .launches = 1,
                       .intensity = 3.2})));

    return suite;
}

} // namespace workloads
} // namespace gpuscale
