"""Switch the pieces off one at a time and watch what each one buys.

Three ablations against the full method, all on the desk stream:

  A  drop the adversarial game (no generator confusion loss, no
     discriminator updates); tasks stop being aligned in feature space
  B  drop both replay regularizers (logit distillation and the replayed
     label loss); memory still joins the union CE, but nothing anchors
     old logits, so early tasks drift
  C  drop the per-task feature modulation; every task must share one
     undecorated trunk view

Single seed for speed; the acceptance suite repeats B vs full over five
seeds and gates on the gap.
"""

from dataclasses import replace

from metacl.config import RunConfig, apply_overrides
from metacl.experiments import build_stream, run_single

DESK = ["lambda3=0.3", "generator_mode=negative-ce", "adversarial_lr=0.03"]


def main():
    base = apply_overrides(RunConfig(), DESK)
    stream = build_stream(base)

    print(f"{'variant':28s} {'ACC':>6s} {'FM':>7s}")
    rows = {}
    for mode, label in (("full", "full method"),
                        ("A", "A: no adversarial game"),
                        ("B", "B: no replay regularizers"),
                        ("C", "C: no task modulation")):
        record = run_single(replace(base, ablation=mode), 0, stream)
        rows[mode] = (record.final_acc, record.final_fm)
        print(f"{label:28s} {rows[mode][0]:6.3f} {rows[mode][1]:+7.3f}")

    print()
    print(f"forgetting gap, B minus full: {rows['B'][1] - rows['full'][1]:+.3f}")
    print("replay regularizers are what keep old columns from decaying;")
    print("the union CE alone cannot repair them at this replay rate")


if __name__ == "__main__":
    main()
