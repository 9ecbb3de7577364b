"""Generate a synthetic AVL dataset and look at its structure.

Shows the factors that shape section travel times (time-of-day peaks,
weekday multipliers, congestion events spreading upstream) and verifies the
anti-causal fingerprint events leave in the data: a previous bus's travel
times over downstream sections correlate with the current bus's travel time
upstream.
"""

import numpy as np

from busarrival.dataprep import RouteSpec
from busarrival.simulator import (SimConfig, no_event_config, peak_multiplier,
                                  simulate_dataset)

cfg = SimConfig(route=RouteSpec(20, 800.0), weeks=3, trips_per_day=25, seed=7)
trips, events = simulate_dataset(cfg)
print(f"{len(trips)} trips over {cfg.weeks} weeks "
      f"(Mon-Sat, {cfg.trips_per_day}/day), {len(events)} congestion events")

# one trip, end to end
trip = trips[40]
print(f"\ntrip {trip.trip_id} (day {trip.day_index}, weekday {trip.weekday}) "
      f"departs {trip.start_time / 3600:.2f} h")
print("section travel times (s):", np.round(trip.travel_times, 1))

# time-of-day profile
hours = np.arange(5, 23)
mult = [peak_multiplier(cfg, h * 3600.0) for h in hours]
print("\npeak multiplier by hour:")
for h, m in zip(hours, mult):
    print(f"  {h:02d}:00  {'#' * int(40 * (m - 1)):<18} {m:.2f}")

# a congestion event and its footprint
day, ev = events[0]
print(f"\nfirst event: day {day}, origin section {ev.origin_section}, "
      f"onset {ev.onset_s / 3600:.2f} h, {ev.duration_s / 60:.0f} min, "
      f"severity {ev.severity:.2f}, front speed {ev.upstream_speed_spm:.2f} "
      "sections/min")
for minutes in (0, 10, 30):
    t = ev.onset_s + minutes * 60
    affected = [s for s in range(1, 21) if ev.factor(s, t) > 1.0]
    print(f"  +{minutes:2d} min: affected sections {affected}")

# the anti-causal correlation that motivates a bidirectional decoder
def lagged_correlation(trip_list, lag=3):
    by_day = {}
    for t in trip_list:
        by_day.setdefault(t.day_index, []).append(t)
    xs, ys = [], []
    for day_trips in by_day.values():
        day_trips.sort(key=lambda t: t.start_time)
        for prev, cur in zip(day_trips, day_trips[1:]):
            for sec in range(1, cur.n_sections - lag):
                xs.append(prev.travel(sec + lag))
                ys.append(cur.travel(sec))
    return float(np.corrcoef(xs, ys)[0, 1])

quiet, _ = simulate_dataset(no_event_config(cfg))
print("\ncorr(previous bus downstream, current bus upstream):")
print(f"  with events:    {lagged_correlation(trips):+.3f}")
print(f"  without events: {lagged_correlation(quiet):+.3f}")
