/**
 * @file
 * Pannotia-style suite.
 *
 * Pannotia is all irregular graph analytics: frontier-driven
 * traversals with data-dependent launches, heavy divergence, poor
 * coalescing, and small average frontiers.  In the paper's census
 * this population dominates the parallelism-starved and
 * latency-plateau classes, and its atomic-update kernels are the
 * canonical CU-adverse cases.
 */

#include "archetypes.hh"
#include "registry.hh"

namespace gpuscale {
namespace workloads {

std::vector<Program>
makePannotiaSuite()
{
    std::vector<Program> suite;
    const std::string s = "pannotia";

    suite.emplace_back(Program(s, "bc")
        .add(graphTraversal("bc_forward",
                            {.wgs = 96, .wi_per_wg = 256,
                             .launches = 120, .intensity = 0.8}))
        .add(graphTraversal("bc_backward",
                            {.wgs = 96, .wi_per_wg = 256,
                             .launches = 120, .intensity = 0.9}))
        .add([] {
            auto k = reduction("bc_accumulate",
                               {.wgs = 96, .wi_per_wg = 256,
                                .launches = 120}, 0.80);
            k.coalescing = 0.15;
            return k;
        }())
        .add(tinyIterative("bc_frontier_reset",
                           {.wgs = 2, .wi_per_wg = 256,
                            .launches = 120}))
        .add(streaming("bc_init_arrays",
                       {.wgs = 192, .wi_per_wg = 256, .launches = 1,
                        .intensity = 0.2})));

    suite.emplace_back(Program(s, "color")
        .add([] {
            auto k = graphTraversal("color_max_degree",
                                    {.wgs = 128, .wi_per_wg = 256,
                                     .launches = 40, .intensity = 1.0});
            k.branch_divergence = 0.55;
            return k;
        }())
        .add(graphTraversal("color_assign",
                            {.wgs = 128, .wi_per_wg = 256,
                             .launches = 40, .intensity = 0.5}))
        .add(tinyIterative("color_check_done",
                           {.wgs = 1, .wi_per_wg = 64,
                            .launches = 40})));

    suite.emplace_back(Program(s, "fw")
        .add([] {
            // Floyd-Warshall over the adjacency matrix: the aggregate
            // tile working set overflows the shared L2 once enough
            // CUs are enabled -> classic CU-adverse scaling.
            auto k = cacheThrash("fw_block_pass",
                                 {.wgs = 1024, .wi_per_wg = 256,
                                  .launches = 256, .intensity = 0.6},
                                 18.0);
            return k;
        }())
        .add(tinyIterative("fw_pivot_row",
                           {.wgs = 8, .wi_per_wg = 256,
                            .launches = 256, .intensity = 0.4})));

    suite.emplace_back(Program(s, "mis")
        .add(graphTraversal("mis_select",
                            {.wgs = 112, .wi_per_wg = 256,
                             .launches = 30, .intensity = 0.7}))
        .add([] {
            auto k = reduction("mis_atomic_add",
                               {.wgs = 112, .wi_per_wg = 256,
                                .launches = 30}, 0.85);
            k.coalescing = 0.2;
            return k;
        }())
        .add(graphTraversal("mis_remove",
                            {.wgs = 112, .wi_per_wg = 256,
                             .launches = 30, .intensity = 0.4}))
        .add(tinyIterative("mis_done_flag",
                           {.wgs = 1, .wi_per_wg = 64,
                            .launches = 30})));

    suite.emplace_back(Program(s, "pagerank")
        .add([] {
            auto k = graphTraversal("pagerank_push",
                                    {.wgs = 724, .wi_per_wg = 128,
                                     .launches = 26, .intensity = 0.6});
            k.atomic_ops = 0.30;
            k.atomic_contention = 0.35;
            return k;
        }())
        .add(denseCompute("pagerank_scale",
                          {.wgs = 724, .wi_per_wg = 128, .launches = 26,
                           .intensity = 0.2}))
        .add(reduction("pagerank_error",
                       {.wgs = 91, .wi_per_wg = 128, .launches = 26},
                       0.30))
        .add(streaming("pagerank_init",
                       {.wgs = 724, .wi_per_wg = 128, .launches = 1,
                        .intensity = 0.2})));

    suite.emplace_back(Program(s, "sssp")
        .add(graphTraversal("sssp_relax",
                            {.wgs = 168, .wi_per_wg = 256,
                             .launches = 64, .intensity = 0.9}))
        .add([] {
            auto k = reduction("sssp_min_update",
                               {.wgs = 168, .wi_per_wg = 256,
                                .launches = 64}, 0.75);
            k.coalescing = 0.18;
            return k;
        }())
        .add(graphTraversal("sssp_frontier_build",
                            {.wgs = 168, .wi_per_wg = 256,
                             .launches = 64, .intensity = 0.4}))
        .add(tinyIterative("sssp_done_flag",
                           {.wgs = 1, .wi_per_wg = 64,
                            .launches = 64}))
        .add(streaming("sssp_init_dist",
                       {.wgs = 336, .wi_per_wg = 256, .launches = 1,
                        .intensity = 0.2})));

    return suite;
}

} // namespace workloads
} // namespace gpuscale
