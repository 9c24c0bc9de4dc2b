/**
 * @file
 * Rodinia-style suite.
 *
 * Parameters follow the behaviour of the Rodinia 3.x OpenCL
 * applications: iterative stencils (hotspot, srad), wavefront
 * algorithms with tiny launches (nw, gaussian, lud), graph traversals
 * (bfs, b+tree), and dense math (lavaMD, heartwall, kmeans).
 */

#include "archetypes.hh"
#include "registry.hh"

namespace gpuscale {
namespace workloads {

std::vector<Program>
makeRodiniaSuite()
{
    std::vector<Program> suite;
    const std::string s = "rodinia";

    suite.emplace_back(Program(s, "backprop")
        .add(tiledLds("layerforward",
                      {.wgs = 4096, .wi_per_wg = 256, .launches = 2,
                       .intensity = 0.7}))
        .add(streaming("adjust_weights",
                       {.wgs = 4096, .wi_per_wg = 256, .launches = 2,
                        .intensity = 1.0})));

    suite.emplace_back(Program(s, "bfs")
        .add(graphTraversal("kernel1",
                            {.wgs = 192, .wi_per_wg = 256,
                             .launches = 14, .intensity = 0.8}))
        .add(graphTraversal("kernel2",
                            {.wgs = 192, .wi_per_wg = 256,
                             .launches = 14, .intensity = 0.3})));

    suite.emplace_back(Program(s, "b+tree")
        .add(pointerChase("findK",
                          {.wgs = 20, .wi_per_wg = 64, .launches = 2,
                           .intensity = 0.9}))
        .add(pointerChase("findRangeK",
                          {.wgs = 24, .wi_per_wg = 64, .launches = 2,
                           .intensity = 1.2})));

    suite.emplace_back(Program(s, "cfd")
        .add(streaming("initialize_variables",
                       {.wgs = 1212, .wi_per_wg = 192, .launches = 1}))
        .add(denseCompute("compute_step_factor",
                          {.wgs = 1212, .wi_per_wg = 192,
                           .launches = 2000, .intensity = 0.35}))
        .add(stencil("compute_flux",
                     {.wgs = 1212, .wi_per_wg = 192, .launches = 6000,
                      .intensity = 2.2}, 40.0))
        .add(streaming("time_step",
                       {.wgs = 1212, .wi_per_wg = 192,
                        .launches = 6000}))
        .add(streaming("copy_variables",
                       {.wgs = 1212, .wi_per_wg = 192, .launches = 2000,
                        .intensity = 0.5}))
        .add(reduction("compute_residual",
                       {.wgs = 606, .wi_per_wg = 192, .launches = 100},
                       0.15)));

    suite.emplace_back(Program(s, "dwt2d")
        .add(tiledLds("fdwt53",
                      {.wgs = 1024, .wi_per_wg = 192, .launches = 3,
                       .intensity = 0.8}))
        .add(tiledLds("rdwt53",
                      {.wgs = 1024, .wi_per_wg = 192, .launches = 3,
                       .intensity = 0.8}))
        .add(streaming("components_rgb",
                       {.wgs = 2048, .wi_per_wg = 256, .launches = 1}))
        .add(streaming("bandwrite",
                       {.wgs = 1024, .wi_per_wg = 256, .launches = 6,
                        .intensity = 0.4}))
        .add(tinyIterative("show_buffer",
                           {.wgs = 32, .wi_per_wg = 256,
                            .launches = 12})));

    suite.emplace_back(Program(s, "gaussian")
        .add(tinyIterative("fan1",
                           {.wgs = 4, .wi_per_wg = 256,
                            .launches = 1024, .intensity = 0.2}))
        .add(tinyIterative("fan2",
                           {.wgs = 64, .wi_per_wg = 256,
                            .launches = 1024, .intensity = 0.6})));

    suite.emplace_back(Program(s, "heartwall")
        .add(denseCompute("gicov",
                          {.wgs = 510, .wi_per_wg = 256, .launches = 20,
                           .intensity = 1.3}))
        .add(stencil("dilate",
                     {.wgs = 510, .wi_per_wg = 256, .launches = 20},
                     24.0))
        .add(smallGridCompute("template_match",
                              {.wgs = 40, .wi_per_wg = 256,
                               .launches = 20, .intensity = 1.2}))
        .add(reduction("reduce_endo",
                       {.wgs = 51, .wi_per_wg = 256, .launches = 20},
                       0.30)));

    suite.emplace_back(Program(s, "hotspot")
        .add(stencil("calculate_temp",
                     {.wgs = 1849, .wi_per_wg = 256, .launches = 60,
                      .intensity = 1.0}, 18.0)));

    suite.emplace_back(Program(s, "hotspot3D")
        .add(stencil("hotspot_opt1",
                     {.wgs = 4096, .wi_per_wg = 256, .launches = 100,
                      .intensity = 1.2}, 52.0)));

    suite.emplace_back(Program(s, "hybridsort")
        .add(reduction("bucketcount",
                       {.wgs = 2048, .wi_per_wg = 256, .launches = 1},
                       0.55))
        .add(tinyIterative("bucketprefix",
                           {.wgs = 8, .wi_per_wg = 256, .launches = 1}))
        .add(streaming("bucketsort",
                       {.wgs = 2048, .wi_per_wg = 256, .launches = 1,
                        .intensity = 0.6}))
        .add(pointerChase("merge_sort_pass",
                          {.wgs = 1024, .wi_per_wg = 208,
                           .launches = 10, .intensity = 0.7}))
        .add(streaming("merge_pack",
                       {.wgs = 1024, .wi_per_wg = 256, .launches = 1,
                        .intensity = 0.4})));

    suite.emplace_back(Program(s, "kmeans")
        .add(denseCompute("kmeans_kernel",
                          {.wgs = 1936, .wi_per_wg = 256,
                           .launches = 24, .intensity = 0.25}))
        .add(streaming("kmeans_swap",
                       {.wgs = 1936, .wi_per_wg = 256, .launches = 1,
                        .intensity = 0.8})));

    suite.emplace_back(Program(s, "lavaMD")
        .add(tiledLds("kernel_gpu_opencl",
                      {.wgs = 1000, .wi_per_wg = 128, .launches = 1,
                       .intensity = 3.0})));

    suite.emplace_back(Program(s, "leukocyte")
        .add(denseCompute("gicov_kernel",
                          {.wgs = 598, .wi_per_wg = 256, .launches = 1,
                           .intensity = 1.1}))
        .add(stencil("dilate_kernel",
                     {.wgs = 598, .wi_per_wg = 256, .launches = 1},
                     20.0))
        .add(smallGridCompute("mgvf_kernel",
                              {.wgs = 36, .wi_per_wg = 256,
                               .launches = 600, .intensity = 0.8}))
        .add(tinyIterative("heaviside",
                           {.wgs = 36, .wi_per_wg = 256,
                            .launches = 600, .intensity = 0.5})));

    suite.emplace_back(Program(s, "lud")
        .add(tinyIterative("lud_diagonal",
                           {.wgs = 1, .wi_per_wg = 256, .launches = 128,
                            .intensity = 1.6}))
        .add(smallGridCompute("lud_perimeter",
                              {.wgs = 33, .wi_per_wg = 128,
                               .launches = 128, .intensity = 0.5}))
        .add(denseCompute("lud_internal",
                          {.wgs = 2048, .wi_per_wg = 256,
                           .launches = 128, .intensity = 0.5})));

    suite.emplace_back(Program(s, "myocyte")
        .add(smallGridCompute("solver_2",
                              {.wgs = 2, .wi_per_wg = 128,
                               .launches = 400, .intensity = 2.0}))
        .add(smallGridCompute("embedded_fehlberg",
                              {.wgs = 2, .wi_per_wg = 128,
                               .launches = 400, .intensity = 1.1})));

    suite.emplace_back(Program(s, "nn")
        .add(streaming("euclid",
                       {.wgs = 168, .wi_per_wg = 256, .launches = 1,
                        .intensity = 0.5})));

    suite.emplace_back(Program(s, "nw")
        .add(tinyIterative("needle_1",
                           {.wgs = 16, .wi_per_wg = 64, .launches = 255,
                            .intensity = 0.9}))
        .add(tinyIterative("needle_2",
                           {.wgs = 16, .wi_per_wg = 64, .launches = 255,
                            .intensity = 0.9})));

    suite.emplace_back(Program(s, "particlefilter")
        .add(denseCompute("likelihood",
                          {.wgs = 512, .wi_per_wg = 256, .launches = 9,
                           .intensity = 0.5}))
        .add(reduction("sum_kernel",
                       {.wgs = 512, .wi_per_wg = 256, .launches = 9},
                       0.70))
        .add(streaming("normalize_weights",
                       {.wgs = 512, .wi_per_wg = 256, .launches = 9,
                        .intensity = 0.3}))
        .add(graphTraversal("find_index",
                            {.wgs = 512, .wi_per_wg = 256,
                             .launches = 9, .intensity = 0.6}))
        .add(tinyIterative("u_init",
                           {.wgs = 2, .wi_per_wg = 256, .launches = 9}))
        .add(reduction("divide_weights",
                       {.wgs = 512, .wi_per_wg = 256, .launches = 9},
                       0.20))
        .add(denseCompute("particle_update",
                          {.wgs = 512, .wi_per_wg = 256, .launches = 9,
                           .intensity = 0.4})));

    suite.emplace_back(Program(s, "pathfinder")
        .add(stencil("dynproc_kernel",
                     {.wgs = 463, .wi_per_wg = 256, .launches = 5,
                      .intensity = 0.6}, 10.0)));

    suite.emplace_back(Program(s, "srad")
        .add(reduction("prepare",
                       {.wgs = 1024, .wi_per_wg = 256, .launches = 100},
                       0.10))
        .add(stencil("srad_1",
                     {.wgs = 1024, .wi_per_wg = 256, .launches = 100,
                      .intensity = 1.0}, 22.0))
        .add(stencil("srad_2",
                     {.wgs = 1024, .wi_per_wg = 256, .launches = 100,
                      .intensity = 0.9}, 22.0))
        .add(streaming("compress",
                       {.wgs = 1024, .wi_per_wg = 256, .launches = 1,
                        .intensity = 0.4}))
        .add(streaming("extract",
                       {.wgs = 1024, .wi_per_wg = 256, .launches = 1,
                        .intensity = 0.4})));

    return suite;
}

} // namespace workloads
} // namespace gpuscale
