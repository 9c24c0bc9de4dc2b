/**
 * @file
 * OpenDwarfs-style suite.
 *
 * One application per Berkeley dwarf; the irregular dwarfs (dynamic
 * programming, branch-and-bound, graphical models) contribute
 * divergent, serialization-heavy kernels that round out the zoo's
 * coverage of the taxonomy's non-obvious classes.
 */

#include "archetypes.hh"
#include "registry.hh"

namespace gpuscale {
namespace workloads {

std::vector<Program>
makeOpenDwarfsSuite()
{
    std::vector<Program> suite;
    const std::string s = "opendwarfs";

    suite.emplace_back(Program(s, "gem")
        .add(denseCompute("gem_electrostatics",
                          {.wgs = 622, .wi_per_wg = 256, .launches = 1,
                           .intensity = 3.1}))
        .add(streaming("gem_write_phi",
                       {.wgs = 622, .wi_per_wg = 256, .launches = 1,
                        .intensity = 0.2})));

    suite.emplace_back(Program(s, "nqueens")
        .add([] {
            auto k = smallGridCompute("nqueens_solver",
                                      {.wgs = 26, .wi_per_wg = 192,
                                       .launches = 1,
                                       .intensity = 1.5});
            k.branch_divergence = 0.55;
            k.vgprs = 96;
            return k;
        }())
        .add(tinyIterative("board_gen",
                           {.wgs = 14, .wi_per_wg = 192,
                            .launches = 14}))
        .add(reduction("solution_count",
                       {.wgs = 28, .wi_per_wg = 192, .launches = 1},
                       0.65)));

    suite.emplace_back(Program(s, "crc")
        .add([] {
            auto k = streaming("crc32_slice8",
                               {.wgs = 1024, .wi_per_wg = 256,
                                .launches = 8, .intensity = 0.6});
            k.shared_footprint_bytes = 8.0 * 1024; // lookup tables
            k.l2_reuse = 0.70;
            return k;
        }()));

    suite.emplace_back(Program(s, "swat")
        .add([] {
            auto k = smallGridCompute("swat_diagonal",
                                      {.wgs = 24, .wi_per_wg = 128,
                                       .launches = 380,
                                       .intensity = 0.4});
            k.branch_divergence = 0.25;
            return k;
        }())
        .add(tinyIterative("swat_maxrow",
                           {.wgs = 6, .wi_per_wg = 128,
                            .launches = 380, .intensity = 0.3}))
        .add(pointerChase("swat_traceback",
                          {.wgs = 2, .wi_per_wg = 64, .launches = 1,
                           .intensity = 0.7}))
        .add(streaming("swat_init_matrix",
                       {.wgs = 512, .wi_per_wg = 256, .launches = 1,
                        .intensity = 0.2})));

    suite.emplace_back(Program(s, "hmm")
        .add(denseCompute("bw_forward",
                          {.wgs = 256, .wi_per_wg = 256, .launches = 60,
                           .intensity = 0.8}))
        .add(denseCompute("bw_backward",
                          {.wgs = 256, .wi_per_wg = 256, .launches = 60,
                           .intensity = 0.8}))
        .add(reduction("bw_scale",
                       {.wgs = 32, .wi_per_wg = 256, .launches = 60},
                       0.40))
        .add(denseCompute("bw_gamma",
                          {.wgs = 256, .wi_per_wg = 256, .launches = 60,
                           .intensity = 0.5}))
        .add(denseCompute("bw_xi",
                          {.wgs = 512, .wi_per_wg = 256, .launches = 60,
                           .intensity = 0.9}))
        .add(denseCompute("bw_update_model",
                          {.wgs = 64, .wi_per_wg = 256, .launches = 60,
                           .intensity = 0.3})));

    suite.emplace_back(Program(s, "csr")
        .add(graphTraversal("csr_spmv",
                            {.wgs = 724, .wi_per_wg = 128,
                             .launches = 40, .intensity = 0.7})));

    suite.emplace_back(Program(s, "fft2")
        .add(tiledLds("fft_radix4",
                      {.wgs = 1024, .wi_per_wg = 64, .launches = 6,
                       .intensity = 1.0}))
        .add([] {
            auto k = streaming("fft_twiddle",
                               {.wgs = 1024, .wi_per_wg = 64,
                                .launches = 6, .intensity = 0.5});
            k.coalescing = 0.5;
            return k;
        }())
        .add(tiledLds("fft_transpose",
                      {.wgs = 1024, .wi_per_wg = 64, .launches = 3,
                       .intensity = 0.3})));

    suite.emplace_back(Program(s, "bfs2")
        .add(graphTraversal("bfs_expand",
                            {.wgs = 144, .wi_per_wg = 256,
                             .launches = 18, .intensity = 1.1}))
        .add(tinyIterative("bfs_done_flag",
                           {.wgs = 1, .wi_per_wg = 64,
                            .launches = 18})));

    suite.emplace_back(Program(s, "kmeans2")
        .add(denseCompute("assign_clusters",
                          {.wgs = 968, .wi_per_wg = 256, .launches = 30,
                           .intensity = 0.35}))
        .add(reduction("update_centroids",
                       {.wgs = 121, .wi_per_wg = 256, .launches = 30},
                       0.55))
        .add(tinyIterative("check_convergence",
                           {.wgs = 1, .wi_per_wg = 64,
                            .launches = 30})));

    suite.emplace_back(Program(s, "lud2")
        .add(tinyIterative("lud_diag",
                           {.wgs = 1, .wi_per_wg = 256, .launches = 64,
                            .intensity = 1.4}))
        .add(smallGridCompute("lud_perim",
                              {.wgs = 32, .wi_per_wg = 128,
                               .launches = 64, .intensity = 0.4}))
        .add(denseCompute("lud_inner",
                          {.wgs = 1024, .wi_per_wg = 256,
                           .launches = 64, .intensity = 0.45})));

    suite.emplace_back(Program(s, "srad2")
        .add(stencil("srad_main",
                     {.wgs = 900, .wi_per_wg = 256, .launches = 150,
                      .intensity = 1.0}, 20.0))
        .add(stencil("srad_divergence",
                     {.wgs = 900, .wi_per_wg = 256, .launches = 150,
                      .intensity = 0.8}, 20.0))
        .add(reduction("srad_stats",
                       {.wgs = 113, .wi_per_wg = 256, .launches = 150},
                       0.20))
        .add(streaming("srad_scale",
                       {.wgs = 900, .wi_per_wg = 256, .launches = 1,
                        .intensity = 0.2})));

    suite.emplace_back(Program(s, "nw2")
        .add(tinyIterative("nw_fill_upper",
                           {.wgs = 12, .wi_per_wg = 64, .launches = 180,
                            .intensity = 0.8}))
        .add(tinyIterative("nw_fill_lower",
                           {.wgs = 12, .wi_per_wg = 64, .launches = 180,
                            .intensity = 0.8})));

    suite.emplace_back(Program(s, "tdm")
        .add(pointerChase("tdm_search",
                          {.wgs = 18, .wi_per_wg = 64, .launches = 4,
                           .intensity = 1.2}))
        .add([] {
            auto k = graphTraversal("tdm_match",
                                    {.wgs = 384, .wi_per_wg = 128,
                                     .launches = 4, .intensity = 0.9});
            k.branch_divergence = 0.6;
            return k;
        }())
        .add(reduction("tdm_score",
                       {.wgs = 48, .wi_per_wg = 128, .launches = 4},
                       0.45))
        .add(streaming("tdm_load_patterns",
                       {.wgs = 96, .wi_per_wg = 256, .launches = 1,
                        .intensity = 0.3})));

    return suite;
}

} // namespace workloads
} // namespace gpuscale
