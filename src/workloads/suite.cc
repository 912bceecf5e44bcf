#include "workloads/suite.hh"

#include "common/rng.hh"

namespace constable {

namespace {

/**
 * Category templates. Each builder takes the workload's index within its
 * category and a jitter RNG, and fills a spec whose mix matches the paper's
 * characterization of that category (Fig 3):
 *  - Client/Enterprise/Server: 40-50% global-stable loads, UI/RPC-style
 *    inlined functions and runtime-constant tables.
 *  - FSPEC17: streaming FP kernels, ~20% global-stable, predictable branches.
 *  - ISPEC17: pointer-heavy integer codes, ~30% global-stable, branchy.
 */

WorkloadSpec
clientSpec(unsigned i, Rng& jit)
{
    WorkloadSpec s;
    s.category = "Client";
    s.nGlobalConst = 2;
    s.globalsPerFrag = 5 + jit.below(4);
    s.globalMutatePeriod = (i % 4 == 3) ? 40 : 0;
    s.nInlinedOnce = 2;
    s.nInlinedSilent = 1;
    s.nInlinedChanging = 1;
    s.inlinedArgs = 3 + jit.below(2);
    s.inlinedBodyOps = 4 + jit.below(5);
    s.inlinedBursts = 2;
    s.nObject = 2;
    s.objectFields = 3 + jit.below(3);
    s.objectIters = 2;
    s.objectBursts = 2;
    s.objectRewritePeriod = (i % 3 == 2) ? 6 : 0;
    s.nCall = 1;
    s.callMode = StoreMode::Changing;
    s.nStream = 1;
    s.streamElems = 6 + jit.below(3);
    s.nStrided = (i % 5 == 4) ? 2 : 0; // a few EVES-friendly client traces
    s.nPredChase = 1;
    s.predChaseSteps = (i % 5 == 4) ? 5 : 2;
    s.predChaseFootprintKB = 64;
    s.nChase = 1;
    s.chaseSteps = 2;
    s.chaseFootprintKB = 8;
    s.nAccum = 1;
    s.nBranchy = 2;
    s.branchBranches = 2 + jit.below(3);
    s.branchRandomFrac = 0.04 + 0.04 * jit.uniform();
    s.footprintKB = 48 + jit.below(96);
    return s;
}

WorkloadSpec
enterpriseSpec(unsigned i, Rng& jit)
{
    WorkloadSpec s;
    s.category = "Enterprise";
    s.nGlobalConst = 3;
    s.globalsPerFrag = 6 + jit.below(5);
    s.nInlinedOnce = 2;
    s.nInlinedSilent = 2;
    s.inlinedArgs = 3;
    s.inlinedBodyOps = 5 + jit.below(4);
    s.inlinedBursts = 2;
    s.nObject = 2;
    s.objectFields = 3 + jit.below(3);
    s.objectIters = 2;
    s.objectBursts = 2;
    s.nCall = 2;
    s.callMode = (i % 2) ? StoreMode::Silent : StoreMode::Changing;
    s.nStream = 1;
    s.streamElems = 4;
    s.nStrided = (i % 7 == 6) ? 2 : 0;
    s.nPredChase = 1;
    s.predChaseSteps = (i % 7 >= 5) ? 5 : 2;
    s.predChaseFootprintKB = 64;
    s.nChase = 1;
    s.chaseSteps = 2;
    s.chaseFootprintKB = 8;
    s.nAccum = 2; // transaction counters
    s.accumCounters = 2 + jit.below(3);
    s.nBranchy = 1;
    s.branchBranches = 3;
    s.branchRandomFrac = 0.03 + 0.03 * jit.uniform();
    s.footprintKB = 96 + jit.below(160);
    s.snoopPerKilOp = (i % 3 == 0) ? 0.5 : 0.0;
    return s;
}

WorkloadSpec
fspecSpec(unsigned i, Rng& jit)
{
    WorkloadSpec s;
    s.category = "FSPEC17";
    s.nGlobalConst = 1;
    s.globalsPerFrag = 3 + jit.below(3);
    s.nInlinedOnce = 1;
    s.nInlinedSilent = (i % 3 == 0) ? 1 : 0;
    s.inlinedArgs = 2 + jit.below(2);
    s.inlinedBodyOps = 6 + jit.below(6);
    s.inlinedBursts = 1;
    s.nObject = 1;
    s.objectFields = 2;
    s.objectIters = 2;
    s.objectBursts = 1;
    s.nCall = 0;
    s.nStream = 2 + jit.below(2);
    s.streamElems = 6 + jit.below(4);
    s.streamBursts = 2;
    s.nStrided = 1 + (i % 3 == 1 ? 2 : 0); // FP value locality: EVES-friendly
    s.nPredChase = 1;
    s.predChaseSteps = (i % 3 == 1) ? 5 : 2;
    s.predChaseFootprintKB = 96;
    s.stridedElems = 6 + jit.below(4);
    s.nChase = (i % 4 == 3) ? 1 : 0;
    s.chaseSteps = 1;
    s.chaseFootprintKB = 8;
    s.nAccum = 1;
    s.nBranchy = 1;
    s.branchBranches = 2;
    s.branchRandomFrac = 0.01 + 0.02 * jit.uniform(); // loops: predictable
    s.footprintKB = 192 + jit.below(320);
    return s;
}

WorkloadSpec
ispecSpec(unsigned i, Rng& jit)
{
    WorkloadSpec s;
    s.category = "ISPEC17";
    s.nGlobalConst = 2;
    s.globalsPerFrag = 4 + jit.below(3);
    s.globalMutatePeriod = (i % 5 == 4) ? 60 : 0;
    s.nInlinedOnce = 1;
    s.nInlinedSilent = 1;
    s.nInlinedChanging = 1;
    s.inlinedArgs = 2 + jit.below(2);
    s.inlinedBodyOps = 5;
    s.inlinedBursts = 2;
    s.nObject = 1;
    s.objectFields = 3;
    s.objectIters = 2;
    s.objectBursts = 2;
    s.objectRewritePeriod = (i % 2) ? 8 : 0;
    s.nCall = 1;
    s.callMode = StoreMode::Changing;
    s.nStream = 1;
    s.streamElems = 4;
    s.nStrided = (i % 4 == 2) ? 1 : 0;
    s.nPredChase = 1;
    s.predChaseSteps = (i % 4 == 2) ? 5 : 2;
    s.predChaseFootprintKB = 64;
    s.nChase = 1;
    s.chaseSteps = 2;
    s.chaseFootprintKB = 16;
    s.nAccum = 1;
    s.nBranchy = 2;
    s.branchBranches = 3 + jit.below(2);
    s.branchRandomFrac = 0.06 + 0.05 * jit.uniform(); // hard branches
    s.footprintKB = 64 + jit.below(192);
    return s;
}

WorkloadSpec
serverSpec(unsigned i, Rng& jit)
{
    WorkloadSpec s;
    s.category = "Server";
    s.nGlobalConst = 3;
    s.globalsPerFrag = 7 + jit.below(5);
    s.nInlinedOnce = 2;
    s.nInlinedSilent = 1;
    s.inlinedArgs = 3 + jit.below(2);
    s.inlinedBodyOps = 4 + jit.below(4);
    s.inlinedBursts = 2;
    s.nObject = 3;
    s.objectFields = 3 + jit.below(3);
    s.objectIters = 2;
    s.objectBursts = 2;
    s.nCall = 2;
    s.callMode = StoreMode::Changing;
    s.nStream = 1;
    s.streamElems = 4;
    s.nStrided = (i % 6 == 5) ? 1 : 0;
    s.nPredChase = 1;
    s.predChaseSteps = (i % 6 == 5) ? 5 : 2;
    s.predChaseFootprintKB = 64;
    s.nChase = 1;
    s.chaseSteps = 2;
    s.chaseFootprintKB = 16;
    s.nAccum = 2;
    s.nBranchy = 1;
    s.branchBranches = 3;
    s.branchRandomFrac = 0.03 + 0.04 * jit.uniform();
    s.footprintKB = 128 + jit.below(384);
    s.snoopPerKilOp = (i % 2 == 0) ? 1.0 : 0.0;
    return s;
}

struct CategoryDef
{
    const char* category;
    unsigned count;
    WorkloadSpec (*build)(unsigned, Rng&);
    std::vector<const char*> names;
};

const std::vector<CategoryDef>&
categoryDefs()
{
    static const std::vector<CategoryDef> defs = {
        { "Client", 22, clientSpec,
          { "dacapo_avrora", "dacapo_batik", "dacapo_fop", "dacapo_h2",
            "dacapo_jython", "dacapo_luindex", "sysmark_office",
            "sysmark_chrome", "sysmark_media", "sysmark_productivity",
            "tabletmark_web", "tabletmark_photo", "jetstream2_richards",
            "jetstream2_gbemu", "jetstream2_pdfjs", "jetstream2_wasm",
            "jetstream2_splay", "client_mail", "client_editor",
            "client_spreadsheet", "client_browser_tabs", "client_video" } },
        { "Enterprise", 14, enterpriseSpec,
          { "specjenterprise_web", "specjenterprise_ejb",
            "specjenterprise_db", "specjbb_composite", "specjbb_critical",
            "specjbb_maxjops", "lammps_lj", "lammps_chain", "lammps_eam",
            "enterprise_oltp", "enterprise_cache_tier", "enterprise_queue",
            "enterprise_rpc", "enterprise_serializer" } },
        { "FSPEC17", 29, fspecSpec,
          { "bwaves_t0", "bwaves_t1", "cactuBSSN_t0", "namd_t0", "namd_t1",
            "parest_t0", "povray_t0", "povray_t1", "lbm_t0", "lbm_t1",
            "wrf_t0", "wrf_t1", "wrf_t2", "blender_t0", "blender_t1",
            "cam4_t0", "cam4_t1", "cam4_t2", "imagick_t0", "imagick_t1",
            "nab_t0", "nab_t1", "fotonik3d_t0", "fotonik3d_t1",
            "fotonik3d_t2", "roms_t0", "roms_t1", "roms_t2",
            "cactuBSSN_t1" } },
        { "ISPEC17", 11, ispecSpec,
          { "perlbench_t0", "gcc_t0", "mcf_t0", "omnetpp_t0",
            "xalancbmk_t0", "x264_t0", "deepsjeng_t0", "leela_t0",
            "exchange2_t0", "xz_t0", "xz_t1" } },
        { "Server", 14, serverSpec,
          { "hadoop_kmeans", "hadoop_sort", "hadoop_wordcount",
            "linpack_hpl_t0", "linpack_hpl_t1", "snort_ids_t0",
            "snort_ids_t1", "bigbench_q1", "bigbench_q2", "bigbench_q3",
            "server_kv_store", "server_web_front", "server_log_ingest",
            "server_proxy" } },
    };
    return defs;
}

} // namespace

std::vector<WorkloadSpec>
paperSuite(size_t target_ops)
{
    std::vector<WorkloadSpec> suite;
    uint64_t seedBase = 0xc0'5417'ab1e; // deterministic suite seed
    for (const auto& def : categoryDefs()) {
        for (unsigned i = 0; i < def.count; ++i) {
            Rng jit(Rng::splitmix(seedBase + i * 977 +
                                  std::hash<std::string>{}(def.category)));
            WorkloadSpec s = def.build(i, jit);
            s.name = std::string(def.category) + "/" + def.names.at(i);
            s.seed = Rng::splitmix(seedBase ^ (jit.next() + i));
            s.targetOps = target_ops;
            suite.push_back(std::move(s));
        }
    }
    return suite;
}

std::vector<WorkloadSpec>
smokeSuite(size_t target_ops)
{
    std::vector<WorkloadSpec> suite;
    unsigned i = 0;
    for (const auto& def : categoryDefs()) {
        Rng jit(0x5eed + i);
        WorkloadSpec s = def.build(0, jit);
        s.name = std::string(def.category) + "/smoke";
        s.seed = 0x5eed'0000 + i++;
        s.targetOps = target_ops;
        suite.push_back(std::move(s));
    }
    return suite;
}

std::vector<std::pair<size_t, size_t>>
smtPairs(size_t suite_size)
{
    // Pair i with i + stride so most pairs mix categories.
    std::vector<std::pair<size_t, size_t>> pairs;
    if (suite_size < 2)
        return pairs;
    size_t stride = suite_size / 2;
    for (size_t i = 0; i < stride; ++i)
        pairs.emplace_back(i, i + stride);
    return pairs;
}

} // namespace constable
