#include "sim/world.hpp"

#include <stdexcept>

#include "obs/catalog.hpp"
#include "obs/obs.hpp"
#include "util/time.hpp"
#include "util/vec2.hpp"

namespace rdsim::sim {

World::World(RoadNetwork road, VehicleParams default_params)
    : road_{std::move(road)}, default_params_{default_params} {}

ActorId World::spawn_on_road(ActorKind kind, units::Meters s, int lane,
                             std::optional<VehicleParams> params,
                             units::MetersPerSecond initial_speed, std::string role) {
  return spawn_at_offset(kind, s, road_.lane_center_offset(lane), params, initial_speed,
                         std::move(role));
}

ActorId World::spawn_at_offset(ActorKind kind, units::Meters s, double lateral,
                               std::optional<VehicleParams> params,
                               units::MetersPerSecond initial_speed, std::string role) {
  const ActorId id = next_id_++;
  VehicleParams p = params.value_or(default_params_);
  if (kind == ActorKind::kCyclist) {
    p.bbox = BoundingBox{0.9, 0.35};
    p.wheelbase = units::Meters{1.1};
    p.max_speed = units::MetersPerSecond{9.0};
  } else if (kind == ActorKind::kWalker) {
    p.bbox = BoundingBox{0.25, 0.25};
    p.max_speed = units::MetersPerSecond{3.0};
  }
  auto actor = std::make_unique<Actor>(id, kind, p);
  actor->set_role(std::move(role));

  const util::Pose pose = road_.sample_offset(s.value(), lateral);
  KinematicState state;
  state.position = pose.position;
  state.heading = pose.heading;
  state.velocity = pose.forward() * initial_speed.value();
  actor->vehicle().set_state(state);
  actor->set_projection(road_.project(state.position, s.value()));
  actors_.emplace(id, std::move(actor));
  return id;
}

void World::set_controller(ActorId id, std::unique_ptr<ActorController> controller) {
  if (Actor* a = find(id)) a->set_controller(std::move(controller));
}

void World::destroy(ActorId id) {
  actors_.erase(id);
  contact_set_.erase(id);
  if (ego_ == id) ego_ = kInvalidActor;
}

Actor* World::find(ActorId id) {
  const auto it = actors_.find(id);
  return it == actors_.end() ? nullptr : it->second.get();
}

const Actor* World::find(ActorId id) const {
  const auto it = actors_.find(id);
  return it == actors_.end() ? nullptr : it->second.get();
}

std::vector<const Actor*> World::actors() const {
  std::vector<const Actor*> out;
  out.reserve(actors_.size());
  for (const auto& [_, a] : actors_) out.push_back(a.get());
  return out;
}

void World::designate_ego(ActorId id) {
  if (!find(id)) throw std::invalid_argument{"designate_ego: unknown actor"};
  ego_ = id;
  ego_lane_valid_ = false;
}

Actor& World::ego() {
  Actor* a = find(ego_);
  if (!a) throw std::logic_error{"World has no ego actor"};
  return *a;
}

const Actor& World::ego() const {
  const Actor* a = find(ego_);
  if (!a) throw std::logic_error{"World has no ego actor"};
  return *a;
}

void World::apply_ego_control(const VehicleControl& control) {
  ego().vehicle().apply_control(control);
}

void World::step(units::Seconds dt) {
  obs::Stopwatch stopwatch;
  for (auto& [_, actor] : actors_) {
    actor->step(road_, dt);
    // One projection per moved actor per step; controllers, sensors and
    // project_ego() read this cache. Static vehicles keep their spawn one.
    if (actor->kind() != ActorKind::kStaticVehicle) {
      actor->set_projection(
          road_.project(actor->state().position, actor->projection().s));
    }
  }
  now_ += dt.to_duration();
  ++physics_frame_;
  if (ego_ != kInvalidActor) {
    sense_collisions();
    sense_lane_invasion();
  }
  stopwatch.lap(obs::metric::kSimWorldStep);
}

void World::sense_collisions() {
  const Actor& e = ego();
  for (auto& [id, actor] : actors_) {
    if (id == ego_) continue;
    const bool touching =
        boxes_overlap(e.bbox(), e.pose(), actor->bbox(), actor->pose());
    const bool was_touching = contact_set_.count(id) != 0;
    // Debounce: scraping along an obstacle produces contact chatter; CARLA's
    // sensor reports a burst per impact, so re-arm only after a cooldown.
    const auto cool_it = collision_cooldown_.find(id);
    const bool cooling =
        cool_it != collision_cooldown_.end() &&
        (now_ - cool_it->second) < util::Duration::seconds(5.0);
    if (touching && !was_touching && !cooling) {
      CollisionEvent ev;
      ev.time = now_;
      ev.frame = physics_frame_;
      ev.other = id;
      ev.other_kind = actor->kind();
      ev.relative_speed = (e.state().velocity - actor->state().velocity).norm();
      collisions_.push_back(ev);
      RDSIM_OBS_COUNT(obs::metric::kSimCollision, 1);
      RDSIM_OBS_EVENT(obs::metric::kSimCollision, now_);
      contact_set_[id] = true;
      collision_cooldown_[id] = now_;
      // Crude inelastic response: the ego loses its speed into the obstacle,
      // which keeps it from driving through and ends the manoeuvre, as a
      // real crash would end a test run.
      KinematicState st = e.state();
      st.velocity = {};
      ego().vehicle().set_state(st);
    } else if (touching && !was_touching && cooling) {
      contact_set_[id] = true;  // still in the same scrape episode
    } else if (!touching && was_touching) {
      contact_set_.erase(id);
    }
  }
}

void World::sense_lane_invasion() {
  const RoadProjection& proj = ego().projection();
  if (!ego_lane_valid_) {
    last_ego_lane_ = proj.lane;
    ego_lane_valid_ = true;
    return;
  }
  if (proj.lane != last_ego_lane_) {
    LaneInvasionEvent ev;
    ev.time = now_;
    ev.frame = physics_frame_;
    ev.from_lane = last_ego_lane_;
    ev.to_lane = proj.lane;
    ev.marking = proj.lane > last_ego_lane_ ? road_.marking_left_of(last_ego_lane_)
                                            : road_.marking_right_of(last_ego_lane_);
    invasions_.push_back(ev);
    last_ego_lane_ = proj.lane;
  }
}

ActorSnapshot World::snapshot_actor(const Actor& actor) {
  ActorSnapshot s;
  s.id = actor.id();
  s.kind = actor.kind();
  s.state = actor.state();
  s.bbox = actor.bbox();
  s.control = actor.vehicle().control();
  return s;
}

WorldFrame World::snapshot() const {
  WorldFrame f;
  f.frame_id = physics_frame_;
  f.sim_time_us = now_.count_micros();
  f.weather = weather_;
  if (const Actor* e = find(ego_)) f.ego = snapshot_actor(*e);
  for (const auto& [id, actor] : actors_) {
    if (id == ego_) continue;
    f.others.push_back(snapshot_actor(*actor));
  }
  return f;
}

RoadProjection World::project_ego() const {
  const Actor& e = ego();
  RoadProjection proj = e.projection();
  proj.heading_error = util::wrap_angle(e.state().heading - road_.heading_at(proj.s));
  return proj;
}

}  // namespace rdsim::sim
