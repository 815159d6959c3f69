"""Desk-scale lab for one-step generative sampling via energy-distance scoring.

Library layout:

- ``graph``        differentiable computation graphs (forward, reverse, jvp)
- ``nn``           layers, blocks, Adam, checkpoints; the shared step loop,
                   descent step and model loader
- ``rng``          counter-based random streams
- ``data``         toy generators (Swiss roll, class-conditional traces), CSV io
- ``heads``        the five continuous sampling heads and their losses/samplers
- ``swiss``        the toy head model trained on the 2-D Swiss roll
- ``mar``          masked autoregressive training, parallel decoding, CFG, distillation
- ``metrics``      energy distance, MMD, assignment Wasserstein
- ``verify``       the ``gradcheck`` verification suite
- ``config``       nested defaults, dotted-key overrides, config digests
- ``svg``          deterministic SVG scatter plots
- ``experiments``  runners behind the CLI verbs
- ``cli``          command-line front end (``escore`` entry point)
"""
__version__ = "0.1.0"
