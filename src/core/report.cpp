#include "core/report.hpp"

#include <iomanip>
#include <sstream>

#include "metrics/safety.hpp"
#include "metrics/srr.hpp"
#include "metrics/ttc.hpp"
#include "mitigate/mitigation.hpp"
#include "net/fault_injector.hpp"
#include "trace/trace.hpp"
#include "util/stats.hpp"

namespace rdsim::core::report {

namespace {

/// Merged [start, stop) windows in the faulty run during which the fault
/// with `label` was active.
std::vector<std::pair<units::Seconds, units::Seconds>> label_windows(
    const trace::RunTrace& run, const std::string& label) {
  std::vector<std::pair<units::Seconds, units::Seconds>> out;
  for (const auto& w : run.fault_windows()) {
    if (w.label == label) out.emplace_back(units::Seconds{w.start}, units::Seconds{w.stop});
  }
  return out;
}

std::string fmt(double v, int precision = 2) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

std::string pad(const std::string& s, std::size_t width) {
  if (s.size() >= width) return s;
  return s + std::string(width - s.size(), ' ');
}

}  // namespace

std::vector<std::string> fault_labels() {
  std::vector<std::string> labels;
  for (const net::FaultSpec& fault : net::paper_fault_model()) labels.push_back(fault.label());
  return labels;
}

bool paper_missing_srr(const std::string& subject, bool faulty_run) {
  if (!faulty_run) return subject == "T3";
  return subject == "T8" || subject == "T10" || subject == "T12";
}

bool paper_missing_ttc(const std::string& subject) {
  return subject == "T1" || subject == "T2" || subject == "T3" || subject == "T4";
}

std::string render_table1(const StationConfig& s) {
  std::ostringstream os;
  os << "TABLE I: Technical Specifications for Driving Station\n";
  os << "  CPU and RAM      " << s.cpu_ram << "\n";
  os << "  Monitor          " << s.monitor << "\n";
  os << "  Input device     " << s.input_device << "\n";
  os << "  GPU              " << s.gpu << "\n";
  os << "  Operating system " << s.operating_system << "\n";
  os << "  NVIDIA driver    " << s.nvidia_driver << "\n";
  os << "  Video frame rate " << fmt(s.video_fps, 0) << " fps (25-30 as in the paper)\n";
  os << "  Command rate     " << fmt(s.command_rate_hz, 0) << " Hz\n";
  return os.str();
}

std::vector<FaultCountRow> fault_count_rows(const CampaignResult& campaign) {
  std::vector<FaultCountRow> rows;
  for (const SubjectResult* s : campaign.included()) {
    FaultCountRow row;
    row.subject = s->profile.id;
    for (const std::string& label : fault_labels()) row.counts[label] = 0;
    for (const trace::FaultRecord& f : s->faulty.trace.faults) {
      if (f.added) {
        ++row.counts[f.label];
        ++row.total;
      }
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

std::string render_table2(const CampaignResult& campaign) {
  const auto rows = fault_count_rows(campaign);
  const auto labels = fault_labels();
  std::ostringstream os;
  os << "TABLE II: Summary for Faults Injected (frequency per test)\n";
  os << pad("Test", 6);
  for (const auto& l : labels) os << pad(l, 7);
  os << pad("Total", 7) << "\n";
  std::map<std::string, int> totals;
  int grand = 0;
  for (const auto& row : rows) {
    os << pad(row.subject, 6);
    for (const auto& l : labels) {
      const int c = row.counts.at(l);
      totals[l] += c;
      os << pad(std::to_string(c), 7);
    }
    grand += row.total;
    os << pad(std::to_string(row.total), 7) << "\n";
  }
  os << pad("Total", 6);
  for (const auto& l : labels) os << pad(std::to_string(totals[l]), 7);
  os << pad(std::to_string(grand), 7) << "\n";
  return os.str();
}

std::vector<TtcRow> ttc_rows(const CampaignResult& campaign,
                             const metrics::TtcConfig& config) {
  metrics::TtcAnalyzer analyzer{config};
  std::vector<TtcRow> rows;
  for (const SubjectResult* s : campaign.included()) {
    TtcRow row;
    row.subject = s->profile.id;

    const auto golden_series = analyzer.series(s->golden.trace);
    const auto g = analyzer.summarize(golden_series);
    if (g.valid()) row.nfi = g;

    const auto faulty_series = analyzer.series(s->faulty.trace);
    for (const std::string& label : fault_labels()) {
      std::vector<metrics::TtcSample> in_label;
      for (const auto& [start, stop] : label_windows(s->faulty.trace, label)) {
        for (const auto& sample : faulty_series) {
          if (sample.t < start || sample.t >= stop) continue;
          in_label.push_back(sample);
        }
      }
      const auto cell = analyzer.summarize(in_label);
      row.cells[label] = cell.valid() ? std::optional{cell} : std::nullopt;
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

std::string render_table3(const CampaignResult& campaign, bool mask_like_paper,
                          const metrics::TtcConfig& config) {
  const auto rows = ttc_rows(campaign, config);
  const auto labels = fault_labels();
  std::ostringstream os;
  os << "TABLE III: Statistics for TTC (in sec)"
     << (mask_like_paper ? "  [cells the paper could not record are hidden]" : "")
     << "\n";
  const char* sections[3] = {"Maximum TTC", "Average TTC", "Minimum TTC"};
  for (int section = 0; section < 3; ++section) {
    os << "-- " << sections[section] << " --\n";
    os << pad("Test", 6) << pad("NFI", 8);
    for (const auto& l : labels) os << pad(l, 8);
    os << "\n";
    for (const auto& row : rows) {
      if (mask_like_paper && paper_missing_ttc(row.subject)) continue;
      os << pad(row.subject, 6);
      auto cell = [&](const std::optional<metrics::TtcStats>& st) {
        if (!st) {
          os << pad("-", 8);
          return;
        }
        const units::Seconds v =
            section == 0 ? st->max : (section == 1 ? st->avg : st->min);
        os << pad(fmt(v.value()), 8);
      };
      cell(row.nfi);
      for (const auto& l : labels) cell(row.cells.at(l));
      os << "\n";
    }
  }
  return os.str();
}

std::vector<SrrRow> srr_rows(const CampaignResult& campaign,
                             const metrics::SrrConfig& config) {
  metrics::SrrAnalyzer analyzer{config};
  std::vector<SrrRow> rows;
  for (const SubjectResult* s : campaign.included()) {
    SrrRow row;
    row.subject = s->profile.id;

    const auto g = analyzer.analyze(s->golden.trace);
    if (g.valid() && g.duration >= config.min_duration) row.nfi = g.rate_per_min;
    const auto f = analyzer.analyze(s->faulty.trace);
    if (f.valid() && f.duration >= config.min_duration) row.fi = f.rate_per_min;

    double sum = 0.0;
    int n = 0;
    for (const std::string& label : fault_labels()) {
      std::size_t reversals = 0;
      units::Seconds duration{};
      for (const auto& [start, stop] : label_windows(s->faulty.trace, label)) {
        const auto r = analyzer.analyze_window(s->faulty.trace, start, stop);
        reversals += r.reversals;
        duration += r.duration;
      }
      if (duration >= config.min_duration) {
        const double rate = static_cast<double>(reversals) / (duration.value() / 60.0);
        row.cells[label] = rate;
        sum += rate;
        ++n;
      } else {
        row.cells[label] = std::nullopt;
      }
    }
    if (n > 0) row.avg = sum / n;
    rows.push_back(std::move(row));
  }
  return rows;
}

std::string render_table4(const CampaignResult& campaign, bool mask_like_paper,
                          const metrics::SrrConfig& config) {
  const auto rows = srr_rows(campaign, config);
  const auto labels = fault_labels();
  std::ostringstream os;
  os << "TABLE IV: Statistics for SRR (in reversals per minute)"
     << (mask_like_paper ? "  [x = not recorded in the paper]" : "") << "\n";
  os << pad("Test", 6) << pad("NFI", 7) << pad("FI", 7);
  for (const auto& l : labels) os << pad(l, 7);
  os << pad("Avg", 7) << "\n";

  std::map<std::string, util::RunningStats> col_stats;
  util::RunningStats nfi_stats, fi_stats, avg_stats;
  for (const auto& row : rows) {
    os << pad(row.subject, 6);
    const bool mask_nfi = mask_like_paper && paper_missing_srr(row.subject, false);
    const bool mask_fi = mask_like_paper && paper_missing_srr(row.subject, true);
    auto cell = [&](const std::optional<double>& v, bool masked,
                    util::RunningStats* acc) {
      if (masked || !v) {
        os << pad(masked ? "x" : "-", 7);
        return;
      }
      if (acc != nullptr) acc->add(*v);
      os << pad(fmt(*v, 1), 7);
    };
    cell(row.nfi, mask_nfi, &nfi_stats);
    cell(row.fi, mask_fi, &fi_stats);
    for (const auto& l : labels) cell(row.cells.at(l), mask_fi, &col_stats[l]);
    cell(row.avg, mask_fi, &avg_stats);
    os << "\n";
  }
  os << pad("Avg", 6) << pad(nfi_stats.empty() ? "-" : fmt(nfi_stats.mean(), 2), 7)
     << pad(fi_stats.empty() ? "-" : fmt(fi_stats.mean(), 2), 7);
  for (const auto& l : labels) {
    os << pad(col_stats[l].empty() ? "-" : fmt(col_stats[l].mean(), 2), 7);
  }
  os << pad(avg_stats.empty() ? "-" : fmt(avg_stats.mean(), 2), 7) << "\n";
  return os.str();
}

CollisionSummary collision_summary(const CampaignResult& campaign) {
  CollisionSummary sum;
  const auto included = campaign.included();
  sum.included_subjects = included.size();
  for (const SubjectResult* s : included) {
    const auto golden = metrics::analyze_collisions(s->golden.trace);
    const auto faulty = metrics::analyze_collisions(s->faulty.trace);
    if (golden.any()) ++sum.golden_subjects_collided;
    if (faulty.any()) ++sum.faulty_subjects_collided;
    sum.golden_total_collisions += golden.total;
    sum.faulty_total_collisions += faulty.total;
    for (const auto& [label, count] : faulty.by_fault_label()) {
      sum.faulty_by_label[label] += count;
    }
  }
  return sum;
}

std::string render_collision_analysis(const CampaignResult& campaign) {
  const CollisionSummary sum = collision_summary(campaign);
  std::ostringstream os;
  os << "Collision analysis (sec. VI.E)\n";
  os << "  participants analysed:            " << sum.included_subjects << "\n";
  os << "  collided in golden run:           " << sum.golden_subjects_collided << " of "
     << sum.included_subjects << "\n";
  os << "  collided in faulty run:           " << sum.faulty_subjects_collided << " of "
     << sum.included_subjects << "\n";
  os << "  total collisions golden / faulty: " << sum.golden_total_collisions << " / "
     << sum.faulty_total_collisions << "\n";
  os << "  faulty-run collisions by active fault:\n";
  for (const auto& [label, count] : sum.faulty_by_label) {
    os << "    " << pad(label, 6) << count << "\n";
  }
  return os.str();
}

std::string render_questionnaire(const CampaignResult& campaign) {
  std::vector<QuestionnaireResponse> responses;
  for (const SubjectResult* s : campaign.included()) {
    responses.push_back(s->questionnaire);
  }
  const QuestionnaireSummary sum = summarize(responses);
  std::ostringstream os;
  os << "Questionnaire summary (sec. VI.F), " << sum.respondents << " respondents\n";
  os << "  1) gaming experience:        " << sum.gaming << " (recent: " << sum.recent_gaming
     << ")\n";
  os << "  2) car-racing games:         " << sum.racing << "\n";
  os << "  3) no driving-station exp.:  " << sum.no_station_experience
     << " (a few times: " << sum.station_few_times << ", once: " << sum.station_once
     << ")\n";
  os << "  4) QoE of faulty run:        mean " << fmt(sum.mean_qoe) << ", min "
     << fmt(sum.min_qoe, 0) << ", max " << fmt(sum.max_qoe, 0) << "\n";
  os << "  5) virtual testing useful:   " << sum.virtual_testing_useful << "\n";
  os << "  6) felt the faults:          " << sum.felt_difference << "\n";
  return os.str();
}

std::vector<MitigationRow> mitigation_rows(const CampaignResult& campaign) {
  std::vector<MitigationRow> rows;
  for (const SubjectResult* s : campaign.included()) {
    const mitigate::MitigationSummary& m = s->faulty.mitigation;
    MitigationRow row;
    row.subject = s->profile.id;
    row.dwell_nominal = m.dwell_nominal;
    row.dwell_degraded = m.dwell_degraded;
    row.dwell_impaired = m.dwell_impaired;
    row.dwell_link_loss = m.dwell_link_loss;
    row.interventions = m.interventions;
    row.mrm_activations = m.mrm_activations;
    row.mrm_time = m.mrm_time;
    row.standstill = metrics::standstill_time(s->faulty.trace);
    row.collisions = s->faulty.trace.collisions.size();
    rows.push_back(row);
  }
  return rows;
}

std::string render_mitigation(const CampaignResult& campaign) {
  std::ostringstream os;
  os << "Mitigation outcome (rdsim::mitigate, FI runs)\n";
  if (!campaign.config.mitigation.enabled) {
    os << "  mitigation disabled for this campaign\n";
    return os.str();
  }
  os << "  " << pad("subj", 5) << pad("nominal", 9) << pad("degraded", 9)
     << pad("impaired", 9) << pad("linkloss", 9) << pad("shaped", 8)
     << pad("MRM", 5) << pad("MRM[s]", 8) << pad("stop[s]", 8) << "crash\n";
  for (const MitigationRow& r : mitigation_rows(campaign)) {
    os << "  " << pad(r.subject, 5) << pad(fmt(r.dwell_nominal.value(), 1), 9)
       << pad(fmt(r.dwell_degraded.value(), 1), 9)
       << pad(fmt(r.dwell_impaired.value(), 1), 9)
       << pad(fmt(r.dwell_link_loss.value(), 1), 9)
       << pad(std::to_string(r.interventions), 8)
       << pad(std::to_string(r.mrm_activations), 5)
       << pad(fmt(r.mrm_time.value(), 1), 8)
       << pad(fmt(r.standstill.value(), 1), 8) << r.collisions << "\n";
  }
  return os.str();
}

std::string render_mitigation_ablation(const CampaignResult& baseline,
                                       const CampaignResult& mitigated) {
  const CollisionSummary base = collision_summary(baseline);
  const CollisionSummary mit = collision_summary(mitigated);
  std::ostringstream os;
  os << "Mitigation ablation (same seed: paired fault plans)\n";
  os << "  " << pad("", 26) << pad("baseline", 10) << "mitigated\n";
  os << "  " << pad("faulty-run collisions", 26)
     << pad(std::to_string(base.faulty_total_collisions), 10)
     << mit.faulty_total_collisions << "\n";
  os << "  " << pad("subjects that crashed", 26)
     << pad(std::to_string(base.faulty_subjects_collided), 10)
     << mit.faulty_subjects_collided << "\n";
  // Per-fault attribution: the paper's crash faults are the interesting rows.
  for (const std::string& label : fault_labels()) {
    const auto b = base.faulty_by_label.find(label);
    const auto m = mit.faulty_by_label.find(label);
    const std::size_t bc = b == base.faulty_by_label.end() ? 0 : b->second;
    const std::size_t mc = m == mit.faulty_by_label.end() ? 0 : m->second;
    if (bc == 0 && mc == 0) continue;
    os << "  " << pad("  collisions under " + label, 26)
       << pad(std::to_string(bc), 10) << mc << "\n";
  }
  // Completion cost: mitigation trades time for safety.
  auto mean_duration = [](const CampaignResult& c) {
    double sum = 0.0;
    std::size_t n = 0;
    for (const SubjectResult* s : c.included()) {
      sum += s->faulty.duration.value();
      ++n;
    }
    return n == 0 ? 0.0 : sum / static_cast<double>(n);
  };
  auto completed = [](const CampaignResult& c) {
    std::size_t n = 0;
    for (const SubjectResult* s : c.included()) n += s->faulty.completed ? 1 : 0;
    return n;
  };
  os << "  " << pad("mean FI duration [s]", 26)
     << pad(fmt(mean_duration(baseline), 1), 10) << fmt(mean_duration(mitigated), 1)
     << "\n";
  os << "  " << pad("FI runs completed", 26) << pad(std::to_string(completed(baseline)), 10)
     << completed(mitigated) << "\n";
  return os.str();
}

}  // namespace rdsim::core::report
