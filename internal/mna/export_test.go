package mna

// CompareStepSolvers exposes compareStepSolvers to the external tests,
// which build their circuits with rlctree (an importer of this package).
var CompareStepSolvers = compareStepSolvers
