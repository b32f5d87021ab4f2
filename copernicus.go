// Package copernicus is the public API of the Copernicus reproduction: a
// framework for parallel adaptive molecular dynamics that executes ensembles
// of coupled simulations as a single job across an authenticated peer-to-
// peer overlay of servers and workers, with plugin controllers that cluster
// trajectories into Markov State Models and adaptively spawn new sampling
// (Pronk et al., "Copernicus: a new paradigm for parallel adaptive molecular
// dynamics", SC 2011).
//
// The package re-exports the user-facing surface of the internal packages:
//
//   - deployment: Fabric (in-process), or Server/Worker over TLS overlays
//   - controllers: the MSM adaptive-sampling plugin and the BAR
//     free-energy plugin, plus the registry for custom controllers
//   - engines: the bundled simulation executables (folding surrogate,
//     classical MD, BAR sampling)
//   - analysis: Markov-state-model construction and the scaling-study
//     discrete-event simulator
//
// See examples/ for runnable entry points and DESIGN.md for the system map.
package copernicus

import (
	"copernicus/internal/bar"
	"copernicus/internal/controller"
	"copernicus/internal/core"
	"copernicus/internal/des"
	"copernicus/internal/engines"
	"copernicus/internal/landscape"
	"copernicus/internal/md"
	"copernicus/internal/msm"
	"copernicus/internal/overlay"
	"copernicus/internal/server"
	"copernicus/internal/topology"
	"copernicus/internal/wire"
	"copernicus/internal/worker"
)

// --- deployment ---

// Fabric is an in-process Copernicus deployment: servers, workers and a
// client over an in-memory overlay (the Fig 1 topology in one process).
type Fabric = core.Fabric

// FabricConfig shapes a Fabric.
type FabricConfig = core.FabricConfig

// NewFabric builds and starts an in-process deployment.
var NewFabric = core.NewFabric

// Server is a Copernicus server node (project hosting, command queueing,
// workload matching, heartbeat monitoring).
type Server = server.Server

// ServerConfig tunes a server.
type ServerConfig = server.Config

// NewServer wires a server onto an overlay node.
var NewServer = server.New

// Worker executes commands against a home server.
type Worker = worker.Worker

// WorkerConfig tunes a worker.
type WorkerConfig = worker.Config

// NewWorker creates a worker bound to a connected overlay node.
var NewWorker = worker.New

// --- overlay ---

// Node is an overlay participant.
type Node = overlay.Node

// Identity is a node keypair; TrustStore holds the peers it accepts.
type (
	Identity   = overlay.Identity
	TrustStore = overlay.TrustStore
)

// Transport abstracts the byte layer; MemNetwork provides the in-process
// implementation and TLSTransport the production one.
type (
	Transport    = overlay.Transport
	MemNetwork   = overlay.MemNetwork
	TLSTransport = overlay.TLSTransport
)

// Overlay constructors.
var (
	NewNode             = overlay.NewNode
	NewIdentity         = overlay.NewIdentity
	NewIdentityFromSeed = overlay.NewIdentityFromSeed
	NewTrustStore       = overlay.NewTrustStore
	NewMemNetwork       = overlay.NewMemNetwork
	NewTLSTransport     = overlay.NewTLSTransport
)

// --- controllers (project plugins) ---

// Controller is the project plugin interface; Context is the server-side
// surface plugins drive projects through.
type (
	Controller         = controller.Controller
	ControllerContext  = controller.Context
	ControllerRegistry = controller.Registry
)

// NewControllerRegistry returns an empty plugin registry;
// DefaultControllerRegistry includes the bundled MSM and BAR plugins.
var (
	NewControllerRegistry     = controller.NewRegistry
	DefaultControllerRegistry = controller.DefaultRegistry
)

// MSM adaptive-sampling plugin types (the §3 protocol).
type (
	MSMParams       = controller.MSMParams
	MSMResult       = controller.MSMResult
	GenerationStats = controller.GenerationStats
)

// DefaultMSMParams returns the paper's villin protocol scaled for one
// machine; RunMSM executes it on a fresh fabric.
var (
	DefaultMSMParams = controller.DefaultMSMParams
	RunMSM           = core.RunMSM
)

// BAR free-energy plugin types.
type (
	BARParams = controller.BARParams
	BARResult = controller.BARResult
)

// DefaultBARParams returns a small free-energy project; RunBAR executes it.
var (
	DefaultBARParams = controller.DefaultBARParams
	RunBAR           = core.RunBAR
)

// Controller registry names of the bundled plugins.
const (
	MSMControllerName = controller.MSMControllerName
	BARControllerName = controller.BARControllerName
)

// --- engines (worker executables) ---

// Engine executes commands of one type on a worker.
type Engine = engines.Engine

// DefaultEngines returns the stock engine set (landscape-md, mdrun,
// bar-sample).
var DefaultEngines = engines.Default

// --- wire protocol ---

// Protocol payloads, for custom controllers and engines.
type (
	CommandSpec   = wire.CommandSpec
	CommandResult = wire.CommandResult
	WorkerInfo    = wire.WorkerInfo
	ProjectStatus = wire.ProjectStatus
)

// --- molecular dynamics substrate ---

// MD engine types: the Gromacs-role compute kernel.
type (
	MDConfig   = md.Config
	MDSim      = md.Sim
	MDEnergies = md.Energies
)

// Thermostat selections for MDConfig.
const (
	NoThermostat = md.NoThermostat
	Berendsen    = md.Berendsen
	Langevin     = md.Langevin
	NoseHoover   = md.NoseHoover
)

// MD constructors: NewMD starts a simulation, ResumeMD continues from a
// checkpoint.
var (
	DefaultMDConfig = md.DefaultConfig
	NewMD           = md.New
	ResumeMD        = md.Resume
)

// System builders for MD workloads.
type MolecularSystem = topology.System

var (
	LJFluid      = topology.LJFluid
	WaterBox     = topology.WaterBox
	PolymerChain = topology.PolymerChain
	Peptide      = topology.Peptide
)

// --- folding surrogate ---

// FoldingModel is the coarse-grained villin stand-in (see DESIGN.md).
type (
	FoldingModel  = landscape.Model
	FoldingParams = landscape.Params
)

var (
	NewFoldingModel      = landscape.New
	DefaultFoldingParams = landscape.DefaultParams
)

// --- Markov state models ---

// MSM analysis types, usable standalone on any discretised trajectories.
type (
	Clustering       = msm.Clustering
	TransitionCounts = msm.Counts
	TransitionMatrix = msm.TransitionMatrix
	Weighting        = msm.Weighting
)

// Weighting modes for adaptive sampling.
const (
	EvenWeighting     = msm.EvenWeighting
	AdaptiveWeighting = msm.AdaptiveWeighting
)

// MSM construction functions.
var (
	KCenters          = msm.KCenters
	CountTransitions  = msm.CountTransitions
	NewCounts         = msm.NewCounts
	ImpliedTimescales = msm.ImpliedTimescales
	StateUncertainty  = msm.StateUncertainty
	SpawnCounts       = msm.SpawnCounts
)

// --- free energy ---

// BAR estimator types (Bennett Acceptance Ratio).
type (
	BAREstimate  = bar.Result
	WindowResult = bar.WindowResult
)

var (
	EstimateBAR = bar.Estimate
	FEPForward  = bar.FEPForward
	ChainBAR    = bar.Chain
)

// --- scaling study ---

// DES types for regenerating the paper's Figs 7–9.
type (
	ScalingParams = des.Params
	ScalingResult = des.Result
	SpeedModel    = des.SpeedModel
	SweepPoint    = des.SweepPoint
)

var (
	PaperScalingParams = des.PaperParams
	SimulateScaling    = des.Simulate
	ScalingReference   = des.ReferenceHours
	ScalingEfficiency  = des.Efficiency
	ScalingSweep       = des.Sweep
)

// MarshalParams and UnmarshalResult encode controller parameters and decode
// project results using the wire codec (gob).
var (
	MarshalParams   = wire.Marshal
	UnmarshalResult = wire.Unmarshal
)
