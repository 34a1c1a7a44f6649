// Package adaptive holds only tests: they hold the closed loop of internal/campaign
// to what the paper's adaptive method promises when it starts from a wrong prior.
package adaptive
