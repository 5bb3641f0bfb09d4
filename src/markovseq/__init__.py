"""Hidden Markov and mixture hidden Markov models for multichannel
categorical sequence data: build, fit, infer, summarize, simulate.

Each public name is imported from its module on first use (PEP 562), so
``import markovseq`` loads no submodule, and a process pays only for the
modules it uses.
"""

import importlib

__version__ = "0.1.0"

# each public name, in the order of __all__, and the module that defines it
_EXPORTS = {
    "MISSING": "seqdata",
    "Alphabet": "seqdata",
    "Channel": "seqdata",
    "CovariateDesign": "seqdata",
    "FBResult": "inference",
    "FitControl": "estimation",
    "FitResult": "estimation",
    "HmmModel": "model",
    "InformationCriteria": "inference",
    "MarkovSeqError": "errors",
    "MixtureModel": "model",
    "MixtureSummary": "inference",
    "ParamCount": "model",
    "ParameterMap": "estimation",
    "SequenceDataset": "seqdata",
    "SimSpec": "simulate",
    "ViterbiResult": "inference",
    "build_hmm": "model",
    "build_mhmm": "model",
    "build_mm": "model",
    "build_restricted_mixture": "model",
    "cluster_posterior_probs": "inference",
    "cluster_prior_probs": "inference",
    "combine_clusters": "model",
    "count_parameters": "model",
    "covariate_standard_errors": "inference",
    "define_alphabet": "seqdata",
    "effective_size": "seqdata",
    "fit_em": "estimation",
    "fit_local": "estimation",
    "fit_model": "estimation",
    "forward_backward": "inference",
    "gamma_m_step": "estimation",
    "information_criteria": "inference",
    "ingest_dataset": "seqdata",
    "log_likelihood": "inference",
    "loglik_gradient": "estimation",
    "mc_to_sc": "seqdata",
    "mixture_summary": "inference",
    "model_from_json": "model",
    "model_to_json": "model",
    "posterior_state_probs": "inference",
    "render_state_distribution_svg": "svgplot",
    "separate_clusters": "model",
    "simulate_hmm_data": "simulate",
    "simulate_mhmm_data": "simulate",
    "simulate_parameters": "simulate",
    "trim_model": "model",
    "viterbi_paths": "inference",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
