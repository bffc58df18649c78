"""The detection model's white displacement floor, the closed form the tests hold the line fit's floor to."""


def predicted_noise_floor(info: dict) -> float:
    """One-sided displacement floor S = 2 Var(N) / (D_eff^2 f_w) of a linearly inverted count record.

    ``info`` is the record's sidecar: ``CountRecord.info``, or the ``counts_<scheme>.json`` a run wrote. Var(N),
    one window's count variance, is the shot noise C1 + C2 of the single detector or 2 C1 of the balanced pair
    (when ``shot_noise`` is on) plus the electronic variance; D_eff is D or 2 D, and f_w = 1 / T_int_s the window
    rate.
    """
    single = info["scheme"] == "ch"
    shot = (info["C1"] + info["C2"] if single else 2.0 * info["C1"]) if info["shot_noise"] else 0.0
    d_eff = info["D"] if single else 2.0 * info["D"]
    return 2.0 * (shot + info["electronic_noise_counts_rms"] ** 2) * info["T_int_s"] / d_eff**2
