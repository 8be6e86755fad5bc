"""End-to-end acceptance checks.

One test per shipped guarantee, asserted at the documented tolerance. Each
test prints a single [criterion-N] PASS line so a teed pytest -v run reads as
a checklist. Closed-loop runs come from the shared per-session cache, and the
recorded wall-clock time of the underlying run() call backs the timing claims.
"""
import time
from fractions import Fraction

import numpy as np

from conftest import CURVED, SCENARIO_DIR, prediction_block, stacked, timed_run
from cormp import cli
from cormp.bezier import TimedTrajectory
from cormp.identification import time_to_collision
from cormp.metrics import compute_metrics
from cormp.resources import (
    RESOURCES,
    kinetic_energy_delta_kj,
    profile_weights,
    rank_order_centroid,
)
from curve_oracle import CubicBezier

EGO_HALF_LEN = 4.5 / 2.0


# --------------------------------------------------------------------------
# criterion 1: rank weights match the closed form


def test_criterion_1_rank_weights():
    t0 = time.perf_counter()
    exact = [sum(Fraction(1, j) for j in range(k, 7)) / 6 for k in range(1, 7)]
    assert exact[0] == Fraction(49, 120) and exact[5] == Fraction(1, 36)
    for profile in ("regular", "aggressive", "fuel_efficient"):
        weights = profile_weights(profile)
        ranking = {r: i + 1 for i, r in enumerate(
            sorted(RESOURCES, key=lambda r: weights[r], reverse=True))}
        recomputed = rank_order_centroid(ranking)
        ordered = sorted(weights.values(), reverse=True)
        for got, want in zip(ordered, exact):
            assert abs(got - float(want)) <= 1e-12
        assert abs(sum(weights.values()) - 1.0) <= 1e-12
        assert all(a > b for a, b in zip(ordered, ordered[1:]))
        for r in RESOURCES:
            assert abs(weights[r] - recomputed[r]) <= 1e-12
    assert time.perf_counter() - t0 < 1.0
    print("\n[criterion-1] PASS rank weights match the closed form, sum to 1, "
          "strictly decrease, in under a second")


# --------------------------------------------------------------------------
# criterion 2: canonical scenario behaviors


def test_criterion_2a_static_obstacle_overtake():
    sc, log, elapsed = timed_run("overtake_static")
    assert elapsed < 5.0
    starts = [e for e in log.events if e.type == "lane_change_started"]
    lefts = [e for e in starts if e.detail["maneuver"] == "change_lane_left"]
    assert len(lefts) == 1
    assert log.count_events("lane_change_aborted") == 0
    assert log.count_events("collision") == 0

    row = next(r for r in log.rows if abs(r["t"] - lefts[0].t) < 1e-9)
    obstacle = next(a for a in sc.others() if a.id == "stalled_car")
    gap = (obstacle.x - obstacle.length / 2.0) - (row["ego_x"] + EGO_HALF_LEN)
    stopping = row["ego_speed"] ** 2 / (2.0 * 3.0)  # full-brake distance
    assert gap > stopping
    print(f"\n[criterion-2a] PASS one left change at t={lefts[0].t:.1f}s with "
          f"{gap:.1f} m of room (needs {stopping:.1f} m), no collisions, "
          f"{elapsed:.2f}s wall")


def test_criterion_2b_red_light():
    sc, log, elapsed = timed_run("red_light")
    assert elapsed < 5.0
    light = sc.lights[0]
    stop_s = light.stop_line_s
    red_end = light.schedule[0][1]
    assert light.color_at(0.0) == "red"

    held = stopped = False
    prev_front = None
    cross_t = None
    for row in log.rows:
        t, front, speed = row["t"], row["ego_x"] + EGO_HALF_LEN, row["ego_speed"]
        if light.color_at(t) == "red":
            if stop_s - 10.0 <= front <= stop_s:
                held = True
                assert speed < 0.1  # never creeping inside the hold zone
            if front > stop_s - 14.0 and speed < 0.1:
                stopped = True
        if prev_front is not None and prev_front < stop_s <= front:
            cross_t = t
            assert light.color_at(t) == "green"
        prev_front = front
    assert stopped  # it actually waited at the line rather than hanging back
    assert cross_t is not None
    resume = next(r["t"] for r in log.rows
                  if r["t"] >= red_end and r["ego_speed"] > 0.1)
    assert resume - red_end <= 2.0
    zone = "held the approach zone" if held else "waited short of the zone"
    print(f"\n[criterion-2b] PASS {zone}, crossed at t={cross_t:.1f}s on green, "
          f"rolling {resume - red_end:.1f}s after the switch, {elapsed:.2f}s wall")


def test_criterion_2c_slow_lead():
    sc, log, elapsed = timed_run("slow_lead")
    assert elapsed < 5.0
    lead = next(a for a in sc.others())
    v_lead = lead.behavior.speed_at(0.0, lead.speed)
    assert v_lead == 8.0

    speeds = log.column("ego_speed").astype(float)
    inside = np.abs(speeds - v_lead) <= 0.5
    k0 = None
    for k in range(len(speeds)):
        if inside[k:].all():
            k0 = k
            break
    assert k0 is not None and k0 < len(speeds) - 50

    min_ttc = np.inf
    for row in log.rows[k0:]:
        closing = row["ego_speed"] - v_lead
        if closing <= 1e-9:
            continue
        lead_x = lead.x + v_lead * row["t"]
        gap = (lead_x - lead.length / 2.0) - (row["ego_x"] + EGO_HALF_LEN)
        min_ttc = min(min_ttc, gap / closing)
    assert min_ttc >= 2.5
    print(f"\n[criterion-2c] PASS converged to {v_lead:.0f} m/s +-0.5 by "
          f"t={k0 * log.dt:.1f}s, min TTC after {min_ttc:.1f}s, "
          f"{elapsed:.2f}s wall")


def test_criterion_2d_pedestrian_crossing():
    sc, log, elapsed = timed_run("pedestrian_crossing")
    assert elapsed < 5.0
    walker = next(a for a in sc.others())
    span = sc.crosswalks[0].span
    beh = walker.behavior
    half = walker.length / 2.0
    lane_half = sc.lanes["main"].width / 2.0

    def walker_y(t):
        return walker.y + beh.speed * min(max(t - beh.start_time, 0.0),
                                          beh.distance / beh.speed)

    t_clear = None
    for row in log.rows:
        t = row["t"]
        occupied = abs(walker_y(t)) <= lane_half + half
        ego_in = (row["ego_x"] + EGO_HALF_LEN >= span[0]
                  and row["ego_x"] - EGO_HALF_LEN <= span[1])
        assert not (occupied and ego_in)
        if t_clear is None and walker_y(t) > lane_half + half:
            t_clear = t
    assert t_clear is not None
    assert log.count_events("collision") == 0
    resume = next(r["t"] for r in log.rows
                  if r["t"] >= t_clear and r["ego_speed"] > 0.1)
    assert resume - t_clear <= 2.0
    print(f"\n[criterion-2d] PASS never shared the crossing, moving "
          f"{resume - t_clear:.1f}s after it cleared at t={t_clear:.1f}s, "
          f"{elapsed:.2f}s wall")


# --------------------------------------------------------------------------
# criterion 3: the whole scenario suite runs clean


def test_criterion_3_all_scenarios_clean():
    names = sorted(p.stem for p in SCENARIO_DIR.glob("*.json"))
    assert len(names) >= 8
    runs = [(name, "cor-mp") for name in names]
    runs += [(name, planner) for name in CURVED for planner in ("cor-mp", "utility")]
    dirty = {}
    for name, planner in runs:
        sc, log, _ = timed_run(name, planner)
        m = compute_metrics(log, sc)
        if m.collisions or m.rule_violations:
            dirty[(name, planner)] = (m.collisions, m.rule_violations)
    assert dirty == {}
    print(f"\n[criterion-3] PASS 0 collisions and 0 rule violations across "
          f"{len(names)} scenarios and {len(CURVED)} curved roads")


# --------------------------------------------------------------------------
# criterion 4: profiles trade speed against energy


def test_criterion_4_profiles_diverge_on_the_highway():
    results = {}
    for profile in ("regular", "aggressive", "fuel_efficient"):
        sc, log, _ = timed_run("highway", "cor-mp", profile)
        m = compute_metrics(log, sc)
        results[profile] = (m.avg_speed_mps, m.kinetic_energy_kj)
    speed_margin = results["aggressive"][0] - results["regular"][0]
    energy_margin = results["regular"][1] - results["fuel_efficient"][1]
    assert speed_margin > 0.0
    assert energy_margin > 0.0
    print(f"\n[criterion-4] PASS aggressive is {speed_margin:.2f} m/s faster, "
          f"fuel profile spends {energy_margin:.2f} kJ less")


# --------------------------------------------------------------------------
# criterion 5: profit is the weighted sum, and scale cannot flip a choice


def test_criterion_5_profit_oracle_and_scaling(weigh):
    rng = np.random.default_rng(2203)
    for profile in ("regular", "aggressive", "fuel_efficient"):
        weights = profile_weights(profile)
        w = np.array([weights[r] for r in RESOURCES])
        for _ in range(1000):
            mu = rng.uniform(0.0, 1.0, 6)
            profit, = weigh([mu], weights).profits.values()
            assert abs(profit - float(w @ mu)) <= 1e-12

    weights = profile_weights("regular")
    checked = 0
    while checked < 300:
        mus = rng.uniform(0.0, 1.0, (6, 6))
        lam = float(rng.uniform(0.1, 10.0))
        base = np.array(list(weigh(mus, weights).profits.values()))
        order = np.argsort(base)
        if base[order[-1]] - base[order[-2]] < 1e-9:
            continue  # a true tie goes to the tie-break rule, not the argmax
        scaled = np.array(list(weigh(lam * mus, weights).profits.values()))
        assert int(np.argmax(base)) == int(np.argmax(scaled))
        assert np.allclose(scaled, lam * base, rtol=1e-9, atol=1e-12)
        checked += 1
    print("\n[criterion-5] PASS 3000 profits within 1e-12 of the dot product; "
          "argmax survived 300 positive rescalings")


# --------------------------------------------------------------------------
# criterion 6: geometry primitives


def _convex_hull(points):
    pts = sorted(map(tuple, points))
    if len(set(pts)) <= 2:
        return [np.array(p) for p in dict.fromkeys(pts)]

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2:
                ax, ay = out[-2]
                bx, by = out[-1]
                if (bx - ax) * (p[1] - ay) - (by - ay) * (p[0] - ax) <= 0:
                    out.pop()
                else:
                    break
            out.append(p)
        return out

    lower = half(pts)
    upper = half(pts[::-1])
    return [np.array(p) for p in lower[:-1] + upper[:-1]]


def test_criterion_6_bezier_and_ttc():
    rng = np.random.default_rng(617)

    for _ in range(100):
        ctrl = rng.uniform(-20.0, 20.0, (4, 2))
        curve = CubicBezier(ctrl)
        assert np.array_equal(curve.point(0.0), ctrl[0])
        assert np.array_equal(curve.point(1.0), ctrl[3])

    h = 1e-6
    for _ in range(100):
        ctrl = rng.uniform(-10.0, 10.0, (4, 2))
        curve = CubicBezier(ctrl)
        u = float(rng.uniform(h, 1.0 - h))
        numeric = (curve.point(u + h) - curve.point(u - h)) / (2.0 * h)
        assert np.max(np.abs(curve.derivative(u) - numeric)) <= 1e-6

    us = np.linspace(0.0, 1.0, 50)
    for _ in range(1000):
        ctrl = rng.uniform(-10.0, 10.0, (4, 2))
        curve = CubicBezier(ctrl)
        samples = np.array([curve.point(u) for u in us])
        hull = _convex_hull(ctrl)
        assert len(hull) >= 3  # random reals are never collinear
        for a, b in zip(hull, hull[1:] + hull[:1]):
            edge = b - a
            cross = edge[0] * (samples[:, 1] - a[1]) - edge[1] * (samples[:, 0] - a[0])
            assert np.all(cross >= -1e-9)

    dt, n = 0.1, 41
    t_grid = np.arange(n) * dt
    t_fine = np.arange(0.0, 4.0 + 1e-12, 0.001)
    agreements = 0
    for _ in range(50):
        ve = float(rng.uniform(5.0, 20.0))
        vo = float(rng.uniform(0.0, ve))
        x0 = float(rng.uniform(25.0, 90.0))
        y0 = float(rng.uniform(-0.6, 0.6))
        length = float(rng.uniform(3.0, 6.0))
        width = float(rng.uniform(1.5, 2.2))

        def straight(v, x_start, y):
            zeros = np.zeros(n)
            return TimedTrajectory(dt, t_grid.copy(), x_start + v * t_grid,
                                   np.full(n, y), zeros.copy(), np.full(n, v),
                                   zeros.copy(), zeros.copy())

        pred = prediction_block(("vehicle", straight(vo, x0, y0), length, width))
        ttc = time_to_collision(stacked([straight(ve, 0.0, 0.0)]), pred, 4.5, 1.8)[0][0]

        dx = np.abs((x0 + vo * t_fine) - ve * t_fine) - (4.5 + length) / 2.0
        dy = abs(y0) - (1.8 + width) / 2.0
        hits = np.nonzero(np.maximum(dx, dy) <= 0.0)[0]
        brute = float(t_fine[hits[0]]) if len(hits) else np.inf

        if np.isinf(ttc) and np.isinf(brute):
            agreements += 1
            continue
        assert abs(ttc - brute) <= 0.1
        agreements += 1
    assert agreements == 50
    print("\n[criterion-6] PASS exact endpoints, derivative within 1e-6, "
          "1000 curves inside their control hulls, TTC within 0.1s of a "
          "1 ms sweep on 50 encounters")


# --------------------------------------------------------------------------
# criterion 7: energy bookkeeping


def test_criterion_7_kinetic_energy():
    assert kinetic_energy_delta_kj(1500.0, 10.0, 15.0) == 18.75
    rng = np.random.default_rng(77)
    for _ in range(2000):
        v_a = float(rng.uniform(0.0, 40.0))
        v_b = float(rng.uniform(0.0, v_a))
        assert kinetic_energy_delta_kj(1500.0, v_a, v_b) == 0.0
    print("\n[criterion-7] PASS 1500 kg from 10 to 15 m/s costs exactly "
          "18.75 kJ and slowing down is always free")


# --------------------------------------------------------------------------
# criterion 8: planning latency under load


def test_criterion_8_latency_under_load():
    sc, log, _ = timed_run("busy_highway")
    assert len(sc.others()) == 10
    lat = np.asarray(log.latencies_ms)
    assert len(lat) >= 30
    median = float(np.median(lat))
    p99 = float(np.percentile(lat, 99))
    assert median < 10.0
    assert p99 < 50.0
    print(f"\n[criterion-8] PASS median plan {median:.2f} ms, p99 {p99:.2f} ms "
          f"with 10 other road users")


def test_criterion_8_latency_on_a_lit_thousand_vertex_arc():
    # the rule checks read each row's own arc position, so a light per lane
    # and a crosswalk cost no more on 1000-vertex centerlines than on 60
    sc, log, _ = timed_run("lit_arc_1000")
    assert len(sc.lanes["right"].centerline.points) == 1000
    assert len(sc.others()) == 24 and sc.lights and sc.crosswalks
    lat = np.asarray(log.latencies_ms)
    assert len(lat) >= 30
    median = float(np.median(lat))
    p99 = float(np.percentile(lat, 99))
    assert median < 10.0
    assert p99 < 50.0
    print(f"\n[criterion-8] PASS median plan {median:.2f} ms, p99 {p99:.2f} ms "
          f"on a lit 1000-vertex arc with 24 other road users")


# --------------------------------------------------------------------------
# criterion 9: reproducible artifacts


def test_criterion_9_byte_identical_reruns(tmp_path):
    args = ["run", str(SCENARIO_DIR / "highway.json"), "--planner", "cor-mp"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(args + ["--out", str(out_a)]) == 0
    assert cli.main(args + ["--out", str(out_b)]) == 0
    csv_a = (out_a / "log.csv").read_bytes()
    csv_b = (out_b / "log.csv").read_bytes()
    assert csv_a == csv_b
    assert (out_a / "events.json").read_bytes() == (out_b / "events.json").read_bytes()
    print(f"\n[criterion-9] PASS two runs produced byte-identical logs "
          f"({len(csv_a)} bytes)")
