#include "scenario/engine.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "cluster/pool.hpp"
#include "common/assert.hpp"
#include "common/serial.hpp"
#include "fault/campaign.hpp"
#include "fault/estimator.hpp"
#include "fault/fault.hpp"
#include "power/calibration.hpp"
#include "power/governor.hpp"
#include "power/power_model.hpp"

namespace ulpmc::scenario {

const char* policy_name(Policy p) {
    return p == Policy::Ladder ? "ladder" : "baseline";
}

namespace {

/// RNG stream allocation per global block index `gbi`: stream 2*gbi draws
/// the strike decision, stream 2*gbi+1 seeds the injection. The link owns
/// one further stream (kLinkStream). Keeping every draw keyed by gbi —
/// never by execution order — is what makes the run independent of the
/// SweepRunner thread count.
constexpr std::uint64_t kLinkStream = 0xB1E00000u;

/// Governor tick: ladder level and derating freeze for this many block
/// periods; struck blocks inside a chunk simulate in parallel, one pool
/// task each.
constexpr unsigned kChunkBlocks = 32;

/// Lambda-aware DVFS derating (ladder only): when the estimated upset rate
/// crosses kDerateLambdaOn [events/cycle], the device adds kDerateMarginV
/// of supply margin — near-threshold SER falls steeply with voltage,
/// modeled as a kDerateSerFactor multiplier on the strike probability — at
/// the quadratic dynamic-energy cost the V/f model prescribes. Hysteresis
/// via kDerateLambdaOff.
constexpr double kDerateLambdaOn = 2e-7;
constexpr double kDerateLambdaOff = 5e-8;
constexpr double kDerateMarginV = 0.05;
constexpr double kDerateSerFactor = 0.3;
static_assert(kDerateLambdaOn > kDerateLambdaOff);
static_assert(kDerateMarginV >= 0 && kDerateSerFactor > 0 && kDerateSerFactor <= 1);

} // namespace

CalibrationCache::Entry& CalibrationCache::get(
    const std::string& key, const std::function<LevelCalibration()>& compute) {
    Entry* e;
    {
        std::lock_guard lock(m_);
        auto& slot = map_[key];
        if (!slot) slot = std::make_unique<Entry>();
        e = slot.get();
    }
    std::call_once(e->cal_once_, [&] { e->cal_ = compute(); });
    return *e;
}

const cluster::CleanRun& CalibrationCache::Entry::clean_run(
    const std::function<std::unique_ptr<const cluster::CleanRun>()>& capture) {
    std::call_once(clean_once_, [&] { clean_ = capture(); });
    return *clean_;
}

std::size_t CalibrationCache::size() const {
    std::lock_guard lock(m_);
    return map_.size();
}

LifetimeEngine::LifetimeEngine(const Timeline& tl, const DeviceConfig& dc)
    : LifetimeEngine(tl, dc,
                     std::make_shared<const app::EcgBenchmark>(
                         app::BenchmarkOptions{.seed = dc.seed})) {}

LifetimeEngine::LifetimeEngine(const Timeline& tl, const DeviceConfig& dc,
                               std::shared_ptr<const app::EcgBenchmark> bench,
                               CalibrationCache* cache)
    : tl_(tl), dc_(dc), bench_(std::move(bench)), cache_(cache) {
    if (!cache_) {
        own_cache_ = std::make_unique<CalibrationCache>();
        cache_ = own_cache_.get();
    }
    ULPMC_EXPECTS(bench_ != nullptr);
}

LifetimeEngine::~LifetimeEngine() = default;

cluster::ClusterConfig LifetimeEngine::config_for(DegradeLevel level) const {
    cluster::ClusterConfig c = cluster::make_config(dc_.arch, bench_->layout().dm_layout());
    c.barrier_enabled = bench_->layout().use_barrier;
    c.engine = dc_.engine;
    c.watchdog_cycles = cluster::kWatchdogCycles;
    if (dc_.policy == Policy::Baseline) return c; // no-resilience device
    // Ladder protection floor: SEC-DED + IM scrub + register parity; the
    // TightProtect rung escalates to TMR, DM scrub and self-checking
    // arbiters on top.
    c.ecc_enabled = true;
    c.im_scrub = true;
    c.reg_protection = core::RegProtection::Parity;
    if (level >= DegradeLevel::ShedLeads) c.cores = kNumCores / 2;
    if (level >= DegradeLevel::TightProtect) {
        c.reg_protection = core::RegProtection::Tmr;
        c.dm_scrub = true;
        c.xbar_self_check = true;
    }
    return c;
}

LevelCalibration LifetimeEngine::compute_calibration(DegradeLevel level) const {
    LevelCalibration c;
    c.cfg = config_for(level);

    cluster::Cluster& cl = cluster::pooled_cluster(c.cfg, bench_->image());
    bench_->load_inputs(cl, c.cfg.cores);
    c.clean_cycles = cl.run();
    ULPMC_EXPECTS(bench_->verify(cl, c.cfg.cores));
    c.ops = cl.stats().total_ops();

    const power::PowerModel model(dc_.arch);
    const auto rates = power::EventRates::from_run(cl.stats());
    c.energy_cycle_j = model.energy_per_op(rates).total() * cl.stats().ops_per_cycle();

    const power::DutyCycleGovernor governor(model, rates);
    const power::Schedule sched =
        governor.best(static_cast<double>(c.ops), tl_.block_period_s);
    c.energy_block_j = sched.energy_per_period;
    c.v_op = sched.op.v;

    c.tx_bits = 0;
    for (unsigned p = 0; p < c.cfg.cores; ++p) c.tx_bits += bench_->golden_bitstream(p).bits;

    return c;
}

const LevelCalibration& LifetimeEngine::calibrate(DegradeLevel level) {
    const auto idx = static_cast<unsigned>(level);
    if (!calib_[idx]) {
        // Key: everything a calibration is a function of — the workload
        // cohort (benchmark seed + layout knobs), the level's cluster
        // configuration (arch/policy/level) and the governor's scheduling
        // period. The engine tier is deliberately absent: the
        // tiers are stat-identical, so it must not split the cache.
        std::ostringstream key;
        const app::BenchmarkOptions& bo = bench_->options();
        key << "seed=" << bo.seed << "|luts=" << bo.luts_shared << "|bar=" << bo.use_barrier
            << "|spill=" << bo.compiler_spills << "|arch=" << static_cast<int>(dc_.arch)
            << "|policy=" << static_cast<int>(dc_.policy) << "|level=" << idx
            << "|period=" << tl_.block_period_s;
        calib_[idx] = &cache_->get(key.str(), [&] { return compute_calibration(level); });
    }
    return calib_[idx]->calibration();
}

const cluster::CleanRun& LifetimeEngine::clean_run(DegradeLevel level) {
    const LevelCalibration& cal = calibrate(level);
    return calib_[static_cast<unsigned>(level)]->clean_run([&] {
        // Captured on this device's tier; the fast-path tiers restore one
        // another's rungs bit-exactly (tests/fault/fork_walk_test.cpp).
        cluster::ClusterConfig cfg = cal.cfg;
        cfg.engine = dc_.engine;
        cluster::Cluster& cl = cluster::pooled_cluster(cfg, bench_->image());
        bench_->load_inputs(cl, cfg.cores);
        return std::make_unique<const cluster::CleanRun>(cl, cal.clean_cycles);
    });
}

std::uint64_t lifetime_blocks(const Timeline& tl, double max_days) {
    const double sim_s = max_days > 0 ? max_days * 86400.0 : tl.total_s();
    const double blocks = std::floor(sim_s / tl.block_period_s + 1e-9);
    if (blocks >= 1 && blocks < 0x1p64) return static_cast<std::uint64_t>(blocks);
    std::ostringstream os; // the cast is undefined past 2^64 (and for NaN)
    os << "the run (" << sim_s << " s) must span at least one and fewer than 2^64 block periods "
       << "of " << tl.block_period_s << " s";
    throw TimelineError(os.str());
}

Timeline load_lifetime_timeline(const std::string& path, double max_days,
                                std::uint32_t* bytes_crc) {
    Timeline tl = load_timeline(path, bytes_crc);
    try {
        lifetime_blocks(tl, max_days);
    } catch (const TimelineError& e) {
        throw TimelineError(path + ": " + e.what());
    }
    return tl;
}

LifetimeReport LifetimeEngine::run(sweep::SweepRunner& pool) {
    return run(pool, LifeResume{});
}

LifetimeReport LifetimeEngine::run(sweep::SweepRunner& pool, const LifeResume& resume) {
    const double period = tl_.block_period_s;
    const std::uint64_t total_blocks = lifetime_blocks(tl_, dc_.max_days);

    LifetimeReport rep;
    rep.policy = dc_.policy;
    rep.seed = dc_.seed;
    rep.arch = cluster::arch_name(dc_.arch);
    rep.simulated_s = static_cast<double>(total_blocks) * period;
    rep.block_period_s = period;
    rep.battery_capacity_j = tl_.battery_j;
    rep.total_blocks = total_blocks;
    rep.samples_total = total_blocks * kNumCores * app::kEcgBlockSamples;
    rep.phases.resize(tl_.phases.size());
    for (std::size_t i = 0; i < tl_.phases.size(); ++i) rep.phases[i].name = tl_.phases[i].name;

    Battery battery({.capacity_j = tl_.battery_j, .initial_fraction = dc_.initial_charge});
    BleLink link(LinkConfig{}, fault::mix_seed(dc_.seed, kLinkStream));
    fault::UpsetRateEstimator estimator;
    bool derated = false;

    rep.battery_trace.push_back({0.0, battery.charge_fraction()});
    std::size_t prev_phase = tl_.phase_index_at(0.0);

    // ---- durable-execution snapshot codec (DESIGN.md §9.6) -------------
    // Everything mutated across chunks, encoded at a chunk boundary. The
    // field order below IS the wire format; decode mirrors it exactly.
    const auto encode_state = [&](std::uint64_t next_chunk, std::vector<std::uint8_t>& out) {
        out.clear();
        put_raw(out, next_chunk);
        battery.encode(out);
        link.encode(out);
        put_f64(out, estimator.gap_hat());
        put_raw(out, estimator.silence());
        put_raw(out, static_cast<std::uint8_t>(estimator.primed() ? 1 : 0));
        put_raw(out, estimator.updates());
        put_raw(out, static_cast<std::uint8_t>(derated ? 1 : 0));
        put_raw(out, static_cast<std::uint64_t>(prev_phase));
        put_f64(out, rep.first_brownout_s);
        put_raw(out, static_cast<std::uint64_t>(rep.battery_trace.size()));
        for (const BatterySample& s : rep.battery_trace) {
            put_f64(out, s.t_s);
            put_f64(out, s.fraction);
        }
        put_raw(out, static_cast<std::uint64_t>(rep.phases.size()));
        for (const PhaseReport& pr : rep.phases) {
            put_raw(out, pr.blocks);
            put_raw(out, pr.brownout_blocks);
            put_raw(out, pr.struck_blocks);
            put_raw(out, pr.rollbacks);
            put_raw(out, pr.sdc_blocks);
            put_raw(out, pr.trapped_blocks);
            put_raw(out, pr.derated_blocks);
            put_raw(out, pr.samples_sensed);
            put_raw(out, pr.samples_shed);
            put_f64(out, pr.energy_compute_j);
            put_f64(out, pr.energy_checkpoint_j);
            put_f64(out, pr.energy_reexec_j);
            put_f64(out, pr.energy_radio_j);
            put_f64(out, pr.harvest_j);
            put_f64(out, pr.battery_end);
            put_f64(out, pr.lambda_hat_end);
            put_raw(out, static_cast<std::uint32_t>(pr.deepest_level));
        }
    };

    std::uint64_t start_chunk = 0;
    if (!resume.state.empty()) {
        // The journal layer already CRC-verified these bytes and bound
        // them to this run's options, so anything structurally wrong here
        // is a caller bug, not bad input: assert, don't limp.
        ByteReader in(resume.state);
        const auto next = in.get<std::uint64_t>();
        bool ok = battery.decode(in);
        ok = link.decode(in) && ok;
        const double gap = in.get_f64();
        const auto silence = in.get<Cycle>();
        const auto primed = in.get<std::uint8_t>();
        const auto updates = in.get<std::uint64_t>();
        const auto der = in.get<std::uint8_t>();
        const auto prev = in.get<std::uint64_t>();
        const double first_bo = in.get_f64();
        const auto n_trace = in.get<std::uint64_t>();
        ok = ok && !in.fail() && n_trace >= 1 && n_trace <= total_blocks + 2;
        std::vector<BatterySample> trace;
        if (ok) {
            trace.resize(n_trace);
            for (BatterySample& s : trace) {
                s.t_s = in.get_f64();
                s.fraction = in.get_f64();
            }
        }
        const auto n_phases = in.get<std::uint64_t>();
        ok = ok && n_phases == rep.phases.size();
        if (ok) {
            for (PhaseReport& pr : rep.phases) {
                pr.blocks = in.get<std::uint64_t>();
                pr.brownout_blocks = in.get<std::uint64_t>();
                pr.struck_blocks = in.get<std::uint64_t>();
                pr.rollbacks = in.get<std::uint64_t>();
                pr.sdc_blocks = in.get<std::uint64_t>();
                pr.trapped_blocks = in.get<std::uint64_t>();
                pr.derated_blocks = in.get<std::uint64_t>();
                pr.samples_sensed = in.get<std::uint64_t>();
                pr.samples_shed = in.get<std::uint64_t>();
                pr.energy_compute_j = in.get_f64();
                pr.energy_checkpoint_j = in.get_f64();
                pr.energy_reexec_j = in.get_f64();
                pr.energy_radio_j = in.get_f64();
                pr.harvest_j = in.get_f64();
                pr.battery_end = in.get_f64();
                pr.lambda_hat_end = in.get_f64();
                pr.deepest_level = in.get<std::uint32_t>();
            }
        }
        ok = ok && !in.fail() && in.remaining() == 0 && next <= total_blocks &&
             (next % kChunkBlocks == 0 || next == total_blocks) &&
             prev < tl_.phases.size();
        ULPMC_EXPECTS(ok);
        start_chunk = next;
        estimator.restore(gap, silence, primed != 0, updates);
        derated = der != 0;
        prev_phase = static_cast<std::size_t>(prev);
        rep.first_brownout_s = first_bo;
        rep.battery_trace = std::move(trace);
    }
    std::vector<std::uint8_t> state_buf;

    struct Plan {
        std::size_t phase;
        DegradeLevel level;
        bool struck;
        std::uint32_t job; ///< struck: index into jobs/outcomes
    };
    struct StruckJob {
        DegradeLevel level;
        fault::FaultSpec spec;
        const cluster::CleanRun* clean; ///< nullptr on the reference tier
    };
    struct StruckOutcome {
        std::uint64_t events = 0;
        bool ok = false;
        bool trapped = false;
    };
    // The reference tier simulates every struck block from cycle 0: it is
    // the oracle the clean-run memo is diffed against.
    const bool memo = dc_.engine != cluster::SimEngine::Reference;

    for (std::uint64_t chunk_start = start_chunk; chunk_start < total_blocks;
         chunk_start += kChunkBlocks) {
        const std::uint64_t chunk_end =
            std::min<std::uint64_t>(chunk_start + kChunkBlocks, total_blocks);

        // ---- governor tick: freeze the ladder level and the derating
        // decision for this chunk ---------------------------------------
        const DegradeLevel base_level = dc_.policy == Policy::Ladder
                                            ? level_for_charge(battery.charge_fraction(), dc_.thresholds)
                                            : DegradeLevel::Full;
        if (dc_.policy == Policy::Ladder) {
            const double lam = estimator.lambda_hat();
            if (!derated && lam > kDerateLambdaOn) derated = true;
            if (derated && lam < kDerateLambdaOff) derated = false;
        }
        const double ser = derated ? kDerateSerFactor : 1.0;

        // ---- plan the chunk: per-block phase, effective level, and the
        // seeded strike decision and injection (independent of device
        // state, so they can be drawn up front) --------------------------
        std::vector<Plan> plan(chunk_end - chunk_start);
        std::vector<StruckJob> jobs;
        for (std::uint64_t gbi = chunk_start; gbi < chunk_end; ++gbi) {
            Plan& pl = plan[gbi - chunk_start];
            const double t = static_cast<double>(gbi) * period;
            pl.phase = tl_.phase_index_at(t);
            const Phase& ph = tl_.phases[pl.phase];
            // Clinical override: an arrhythmia episode is monitored at
            // full fidelity no matter what the battery says.
            pl.level = (dc_.policy == Policy::Ladder && ph.arrhythmia) ? DegradeLevel::Full
                                                                       : base_level;
            const LevelCalibration& cal = calibrate(pl.level);
            const double p_strike =
                ph.lambda > 0
                    ? 1.0 - std::exp(-ph.lambda * static_cast<double>(cal.clean_cycles) * ser)
                    : 0.0;
            pl.struck = p_strike > 0 &&
                        Rng(fault::mix_seed(dc_.seed, 2 * gbi)).uniform() < p_strike;
            if (!pl.struck) continue;
            fault::FaultInjector inj(fault::mix_seed(dc_.seed, 2 * gbi + 1));
            fault::FaultUniverse u;
            u.text_words = bench_->program().text.size();
            u.dm_words = bench_->layout().dm_layout().limit();
            u.cores = cal.cfg.cores;
            u.window = cal.clean_cycles;
            pl.job = static_cast<std::uint32_t>(jobs.size());
            jobs.push_back({pl.level, inj.draw(u), memo ? &clean_run(pl.level) : nullptr});
        }

        // ---- simulate the struck blocks, one pool task each. A block's
        // outcome is a function of its own spec alone, so the thread count
        // cannot reach the bytes -----------------------------------------
        std::vector<StruckOutcome> outcomes(jobs.size());
        pool.for_each_index(jobs.size(), [&](std::size_t j) {
            const StruckJob& job = jobs[j];
            const LevelCalibration& cal = calib_[static_cast<unsigned>(job.level)]->calibration();
            // The device's own tier: the calibration may come from a
            // device of another tier through a shared cache.
            cluster::ClusterConfig cfg = cal.cfg;
            cfg.engine = dc_.engine;
            cluster::Cluster& cl = cluster::pooled_cluster(cfg, bench_->image());
            bench_->load_inputs(cl, cfg.cores);
            const Cycle bound = cluster::hang_bound(cfg, cal.clean_cycles);
            StruckOutcome& out = outcomes[j];
            if (job.clean) {
                // Restore the rung below the strike, strike, then try to
                // rejoin the clean run: a rejoined block ends in the clean
                // final state, verified by the calibration.
                thread_local cluster::ClusterStats credited;
                const unsigned from = job.clean->restore_below(cl, job.spec.cycle);
                cl.run(job.spec.cycle);
                fault::FaultInjector::apply(cl, job.spec);
                if (job.clean->rejoin(cl, from, credited)) {
                    out.events = credited.upset_events();
                    out.ok = true;
                    return;
                }
                cl.run(bound);
            } else {
                fault::FaultInjector::run_with_fault(cl, job.spec, bound);
            }
            const cluster::ClusterStats& st = cl.stats();
            out.events = st.upset_events();
            fault::InjectionRecord rec;
            fault::classify_oneshot(cl, st, *bench_, cfg.cores, rec);
            out.trapped = rec.outcome == fault::Outcome::Hang ||
                          rec.outcome == fault::Outcome::Trapped;
            out.ok = rec.outcome == fault::Outcome::Masked ||
                     rec.outcome == fault::Outcome::Latent ||
                     rec.outcome == fault::Outcome::Corrected;
        });

        // ---- apply the chunk in strict block order ---------------------
        for (std::uint64_t gbi = chunk_start; gbi < chunk_end; ++gbi) {
            const Plan& pl = plan[gbi - chunk_start];
            const Phase& ph = tl_.phases[pl.phase];
            PhaseReport& pr = rep.phases[pl.phase];
            const double t = static_cast<double>(gbi) * period;

            if (pl.phase != prev_phase) {
                rep.battery_trace.push_back({t, battery.charge_fraction()});
                prev_phase = pl.phase;
            }
            ++pr.blocks;

            if (battery.browned_out()) {
                // Regulator out: the device is dark. All samples of the
                // period are lost at the sensor; only harvest runs.
                ++pr.brownout_blocks;
                pr.samples_shed += kNumCores * app::kEcgBlockSamples;
                battery.harvest(ph.harvest_uw * 1e-6, period);
                pr.harvest_j += ph.harvest_uw * 1e-6 * period;
                pr.battery_end = battery.charge_fraction();
                continue;
            }

            const LevelCalibration& cal = calib_[static_cast<unsigned>(pl.level)]->calibration();
            pr.deepest_level = std::max(pr.deepest_level, static_cast<unsigned>(pl.level));

            // Compute energy, with the quadratic cost of the derating
            // margin when it is engaged.
            double derate_factor = 1.0;
            if (derated) {
                const double v = cal.v_op;
                derate_factor = ((v + kDerateMarginV) / v) * ((v + kDerateMarginV) / v);
                ++pr.derated_blocks;
            }
            double e_compute = cal.energy_block_j * derate_factor;

            // Checkpoint traffic: one end-of-block commit normally; at
            // TightProtect and deeper the interval follows the first-order
            // optimum T* = sqrt(2 C e_w / (lambda E_cycle)) from the
            // estimator's current rate.
            double e_ckpt = 0;
            if (dc_.policy == Policy::Ladder) {
                const double c_words = static_cast<double>(cal.cfg.cores) *
                                       power::cal::kCheckpointWordsPerCore;
                double n_ckpt = 1.0;
                const double lam = estimator.lambda_hat();
                if (pl.level >= DegradeLevel::TightProtect && lam > 0) {
                    const double t_star =
                        std::sqrt(2.0 * c_words * power::cal::kCheckpointWordEnergy /
                                  (lam * cal.energy_cycle_j));
                    n_ckpt = std::max(1.0, static_cast<double>(cal.clean_cycles) / t_star);
                }
                e_ckpt = n_ckpt * c_words * power::cal::kCheckpointWordEnergy;
            }

            // Struck-block outcome.
            double e_reexec = 0;
            bool ship = true;
            TxQuality quality =
                pl.level >= DegradeLevel::CoarseTx ? TxQuality::Degraded : TxQuality::Full;
            std::uint64_t events = 0;
            Cycle observed_cycles = cal.clean_cycles;
            if (pl.struck) {
                ++pr.struck_blocks;
                const StruckOutcome& out = outcomes[pl.job];
                events = out.events;
                if (dc_.policy == Policy::Ladder) {
                    if (!out.ok) {
                        // Verification failed (or the block fail-stopped):
                        // roll back and re-execute; the retry is clean by
                        // construction (the strike already happened).
                        ++pr.rollbacks;
                        e_reexec = cal.energy_block_j * derate_factor;
                        observed_cycles += cal.clean_cycles;
                    }
                } else {
                    if (out.trapped) {
                        // Fail-stop with nobody to roll back: the block is
                        // lost and the device reboots into the next one.
                        ++pr.trapped_blocks;
                        ship = false;
                    } else if (!out.ok) {
                        // Corrupted outputs shipped as if they were good —
                        // the silent-data-corruption channel.
                        ++pr.sdc_blocks;
                        quality = TxQuality::Corrupt;
                    }
                }
            }
            estimator.observe(events, observed_cycles);

            // Sense + enqueue. Shed leads never sample; RadioSilence still
            // enqueues (buffer-and-hold) but keeps the modem off.
            const std::uint64_t sensed =
                static_cast<std::uint64_t>(cal.cfg.cores) * app::kEcgBlockSamples;
            pr.samples_sensed += sensed;
            pr.samples_shed +=
                static_cast<std::uint64_t>(kNumCores - cal.cfg.cores) * app::kEcgBlockSamples;
            if (ship) {
                std::size_t bits = cal.tx_bits;
                if (pl.level >= DegradeLevel::CoarseTx) bits /= 2;
                link.enqueue(bits, sensed, quality);
            } else {
                pr.samples_shed += sensed;
            }

            const double radio_before = link.stats().tx_energy_j;
            const bool radio_up = ph.ble_up && pl.level != DegradeLevel::RadioSilence;
            link.step(period, radio_up, ph.ble_loss);
            const double e_radio = link.stats().tx_energy_j - radio_before;

            battery.drain(e_compute + e_ckpt + e_reexec + e_radio);
            battery.harvest(ph.harvest_uw * 1e-6, period);

            pr.energy_compute_j += e_compute;
            pr.energy_checkpoint_j += e_ckpt;
            pr.energy_reexec_j += e_reexec;
            pr.energy_radio_j += e_radio;
            pr.harvest_j += ph.harvest_uw * 1e-6 * period;
            pr.battery_end = battery.charge_fraction();
            pr.lambda_hat_end = estimator.lambda_hat();

            if (battery.browned_out() && rep.first_brownout_s < 0)
                rep.first_brownout_s = t + period;
        }

        if (resume.on_chunk) {
            encode_state(chunk_end, state_buf);
            resume.on_chunk(state_buf);
        }
    }

    rep.battery_trace.push_back({rep.simulated_s, battery.charge_fraction()});
    rep.link = link.stats();
    for (const PhaseReport& pr : rep.phases) rep.sdc_blocks += pr.sdc_blocks;
    const auto st = static_cast<double>(rep.samples_total);
    rep.delivered_fraction =
        static_cast<double>(rep.link.samples_delivered + rep.link.samples_delivered_degraded) /
        st;
    rep.full_fidelity_fraction = static_cast<double>(rep.link.samples_delivered) / st;
    return rep;
}

} // namespace ulpmc::scenario
